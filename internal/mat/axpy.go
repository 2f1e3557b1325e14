package mat

import "fmt"

// Every forward product in this codebase — the dense product here, the
// sparse product in internal/graph, at fp64 and at int8 — computes each
// output row under one contract, the row accumulate:
//
//	out[0:p] = Σₜ alpha[t] · src[idx[t]·p : idx[t]·p+p]
//
// accumulated per element in t order with a separate multiply and add
// (never a fused multiply-add); the first term is written as a bare
// product (so a −0 product stays −0), and no term at all clears the row.
// SpMM hands it a CSR row's values and column indices directly; the dense
// product first compacts the non-zero multiplicands of an input row into
// a stack buffer, branch-free, and then runs the same indexed kernel, so
// no data-dependent branch is left in the MAC loop.
//
// The fp64 form has one more clause, the look-ahead: the multipliers of
// CSR row i ride with the column indices of row i+ahead of the same CSR,
// and an implementation may use them to start fetching those source rows
// while it sums row i. They are hints and nothing else: never validated,
// the rows they name never read, any value (out of range included)
// allowed, and no bit of out depends on them. The assembly issues
// prefetches for them where that pays (rowacc_amd64.go has the rule and
// its measurements); the portable kernel ignores them. The int8 form
// takes none: its sources are an eighth the size and L2-resident at the
// graph sizes served here.
//
// The kernels read src unchecked, so the indices reach them already
// proved: a sparse product's inside a CheckedCSR, whose column indices
// CheckCSR holds against the source height once per op range (before the
// range's first row is written), the dense products' by construction
// (the compaction emits positions of an input row whose length the shape
// checks hold equal to the weight's height). What is left to check per
// call is constant work: the lengths, and that the source holds the rows
// the indices were proved against. The hints stay unvalidated on
// purpose: validating a hint would cost what the hint is meant to save,
// and nothing ever dereferences one — the assembly turns it into a
// prefetch, which cannot fault, and the portable kernel drops it.
//
// The range clause. The fp64 products do not cross into the kernel once
// per row. A range call — CheckedEpilogue.SparseRange for the sparse
// product, the dense range beneath MatMulBiasReLUInto for the dense one
// (fused.go) — is this contract applied to rows lo … hi−1 of the product,
// in that order, each row followed by the op's epilogue (bias add,
// residual add, ReLU; fused.go has that composition clause), and nothing
// else: row i's multipliers and indices are CSR row i's values and column
// indices (dense: the non-zero entries of input row i and their
// positions), its look-ahead operand the column indices of CSR row
// i+ahead, and no operation of any row is dropped, added, reordered or
// shared with another row. A range is therefore, bit for bit, the loop of
// row calls it replaces; the portable range is literally that loop —
// rowAccF64Go, then ApplyEpilogueRow, per row. A row with no term (an
// isolated node's row of D⁻¹A, an all-zero input row) is cleared and then
// finished like any other. An input row longer than RowChunk runs every
// window of its compaction but the last bare, continuing onto the row,
// and its last window carries the epilogue — the rule the int8 dense
// product follows. A product whose multipliers are computed rather than
// loaded (the attention aggregate) is a sparse range too: it proves its
// whole span once and then hands the kernel batches of rows whose values
// it has just computed (CheckedCSR.Batch).
//
// What a range reads unchecked is proved once, before its first row is
// written, when its caller mints two values. CheckCSR: the row pointers
// from the range's first row through the end of its last look-ahead row
// are non-negative, non-decreasing and inside the operator's values and
// column indices — the kernel reads them where Go's slicing used to bound
// every row — and the range's column indices name source rows.
// CheckEpilogue: the bias is one per column, the residual as many rows
// and columns as the destination. The dense range's indices are
// positions in an input row, in range by construction; its driver proves
// that the weight, the input and the destination hold what their shapes
// say. So a corrupt row pointer or column, a short bias and a
// mis-shaped residual each panic before any destination byte changes,
// and per call what is left is constant work.
//
// The masked-tail rule. A row's last p mod 4 columns are loaded — source
// rows, bias and residual alike — under a lane mask (VMASKMOVPD: a masked
// lane is not accessed and cannot fault) and stored by element, so at any
// width no byte outside out[0:p], the p-wide source rows, bias[0:p] and
// the residual row is touched. TestProductRangeF64Differential reads all
// three operands flush against an unreadable page and writes out between
// canaries.
//
// The contract has exactly two implementations: AVX2 assembly on amd64
// (rowacc_amd64.s, chosen once at init from CPUID) and the portable Go
// below and in fused.go, which is the fallback everywhere else, the only
// implementation under the purego build tag, and the oracle the
// differential tests hold the assembly to. Both perform the same IEEE
// operations on the same operands in the same order for every output
// element, so they agree to the last bit, and — each output row being
// computed in one order from its own operands alone, however rows are
// grouped into ranges, tiles, bands or shards — tiled == direct, sharded
// == single and fused == unfused hold by row independence. The int8 form
// accumulates exactly in int32 and is order-free.
//
// The int8 range clause. An int8 product's output row is this contract —
// into exact int32 sums — followed by the requantise row (requant.go) of
// those sums, and the int8 products cross into the kernel once per op
// range too: CheckedEpilogueI8.SparseRange for the sparse product, the
// dense range beneath MatMulI8EpilogueInto (productrow.go). A range call
// is that composition applied to rows lo … hi−1 in order and nothing
// else. Row i's multipliers are the int8 codes of CSR row i's float64
// values under the range's one value scale — each value quantised as
// QuantizeI8 defines, inside the call, never more than a RowChunk window
// of codes in existence, on the caller's stack — and its indices that
// row's column indices (dense: the non-zero codes of input row i and
// their positions); the sums a row's requantise reads are the sums the
// row accumulate would have left in acc (exact, so how they are held —
// registers, or acc itself — is invisible); and no operation of either
// contract or of the value quantisation is dropped, added or reordered.
// The portable range is literally that loop — QuantizeI8 per value,
// rowAccI8Go, then requantRowGo, per row. Because the sums are exact,
// every split of a row's terms is free of effect: a row with more
// multipliers than one window holds runs every window but its last bare,
// continuing in acc, and its last carries the requantise, and an
// implementation may let its windows fall wherever is simplest (the
// assembly quantises a window of the range's values at a time, across
// rows; its dense compaction windows are RowChunk input entries). A row
// with no term — an isolated node, an all-zero input row — requantises
// cleared sums: bias and residual still apply. The attention aggregate's
// coefficients under their fixed scale are exactly CSR rows under their
// value scale, so it runs as batches of a sparse range (CheckedCSR.Batch)
// here too.
//
// Validation moves, it is never dropped. What an int8 range reads and
// writes unchecked is proved once, before its first row is written.
// CheckCSR: the row pointers non-negative, non-decreasing and inside the
// operator's values and column indices, the column indices naming source
// rows.
// CheckEpilogueI8: deq, bias, residual scales and destination scales one
// per column. The entry itself (requireRows, and the two drivers for
// their matrices): the destination and the residual hold rows·cols codes,
// the input rows·n, the source the rows the indices were proved against,
// acc a row of sums, labels one per row. The value scale is passed
// through untouched — a scale that is not above zero, NaN included,
// yields zero codes, as QuantizeI8 defines. So a corrupt row pointer or
// column, a short epilogue operand and short input, destination, residual
// or label storage each panic before any destination byte changes, and
// per call what is left is constant work.
//
// The over-read rule. int8 rows are narrower than the eight bytes the
// assembly widens at a time, so a row's last cols mod 8 columns are read
// by a narrowed load, and the rule for it is: no load touches a byte
// outside src[0 : srcRows·cols]. The assembly keeps it by loading the
// eight bytes at A = min(W, L), W the address of the wanted columns and
// L = &src[srcRows·cols − 8] the source's final eight bytes, and
// shifting the W − A bytes below them out. Proof: if W ≤ L the load ends
// at W + 8 ≤ L + 8, the source's end. Otherwise A = L < W, the load is
// the source's final eight bytes, and since the r wanted columns lie
// inside the source, W + r ≤ L + 8, i.e. W − A ≤ 8 − r: after the shift
// at least r bytes remain and the first is the byte at W. A ≥ &src[0]
// needs srcRows·cols ≥ 8, which holds for every row of eight columns or
// more; a range over a source shorter than eight codes never reaches the
// assembly (haveI8Kernel). L is established once per range.
// The last source row is the only one for which W > L can hold when
// cols < 8, and TestProductRangeI8Differential reads it flush against an
// unreadable page.

// RowChunk is how many multipliers the kernels take per window from
// their callers' stack buffers — the dense products' compacted
// multiplicands, the int8 products' quantized edge values and attention
// coefficients; longer rows continue onto the output row window by
// window.
const RowChunk = 128

// CheckedCSR is rows [lo, hi) of a CSR operator proved safe to walk
// unchecked — the only form the sparse ranges (CheckedEpilogue.SparseRange,
// CheckedEpilogueI8.SparseRange) take their rows in. Only CheckCSR mints
// one from caller data, and Batch cuts one into batches of rows. The
// value aliases the operator's slices, which must not change while it is
// in use.
type CheckedCSR struct {
	rowPtr  []int // RowPtr[lo:] through the last look-ahead row's end
	rows    int   // hi − lo
	col     []int // the operator's column indices, whole
	val     []float64
	srcRows int // the source height col[rowPtr[0]:rowPtr[rows]] was proved against
	ahead   int // row i's look-ahead hints are row i+ahead's column indices
	hinted  int // how many of the rows have such a row inside the operator
}

// CheckCSR proves rows [lo, hi) of the CSR (rowPtr, colIdx, val) against
// a source of srcRows rows, once, before the caller has written anything:
// the row pointers from rowPtr[lo] through the end of row hi+ahead−1 (or
// of the operator's last row) — the rows the range walks and the rows
// whose column indices ride along as its look-ahead hints — are
// non-negative, non-decreasing and end inside colIdx, which is as long
// as val; and every column index of rows [lo, hi) names a source row.
// It panics on the first that does not hold. The hint rows' column
// indices are bounded, never validated: they are hints.
func CheckCSR(rowPtr, colIdx []int, val []float64, lo, hi, ahead, srcRows int) CheckedCSR {
	n := len(rowPtr) - 1
	if lo < 0 || hi < lo || hi > n || ahead < 0 {
		panic(fmt.Sprintf("mat: CSR rows [%d,%d) looking %d ahead, of %d", lo, hi, ahead, n))
	}
	if len(colIdx) != len(val) {
		panic(fmt.Sprintf("mat: CSR with %d column indices for %d values", len(colIdx), len(val)))
	}
	end := min(hi+ahead, n)
	prev := 0
	for i, at := range rowPtr[lo : end+1] {
		if at < prev {
			panic(fmt.Sprintf("mat: CSR row pointer %d at row %d below its predecessor %d", at, lo+i, prev))
		}
		prev = at
	}
	if prev > len(colIdx) {
		panic(fmt.Sprintf("mat: CSR row pointer %d past its %d non-zeros", prev, len(colIdx)))
	}
	if srcRows < 0 {
		panic(fmt.Sprintf("mat: CSR columns checked against %d rows", srcRows))
	}
	for _, c := range colIdx[rowPtr[lo]:rowPtr[hi]] {
		if uint(c) >= uint(srcRows) {
			panic(fmt.Sprintf("mat: CSR column %d out of range [0,%d)", c, srcRows))
		}
	}
	return CheckedCSR{
		rowPtr: rowPtr[lo : end+1], rows: hi - lo, col: colIdx, val: val,
		srcRows: srcRows, ahead: ahead, hinted: max(0, min(hi, n-ahead)-lo),
	}
}

// Batch returns rows [lo, hi) of c, counted from c's first row, as a
// range of their own whose values are val instead of the operator's —
// one per term of those rows, in CSR order — for a product whose
// multipliers are computed a batch of rows at a time (the attention
// aggregate). Their row pointers, and their look-ahead rows', are rebased
// into ptr, which must hold hi−lo+ahead+1 of them; the column indices and
// the hints are c's. Every column was proved when c was minted, so what
// is checked here is the batch's bounds and the lengths of ptr and val.
func (c *CheckedCSR) Batch(ptr []int, lo, hi int, val []float64) CheckedCSR {
	if lo < 0 || hi < lo || hi > c.rows {
		panic(fmt.Sprintf("mat: CSR batch [%d,%d) of %d rows", lo, hi, c.rows))
	}
	rp := c.rowPtr[lo : min(hi+c.ahead, len(c.rowPtr)-1)+1]
	base := rp[0]
	if len(ptr) < len(rp) || len(val) != c.rowPtr[hi]-base {
		panic(fmt.Sprintf("mat: CSR batch [%d,%d) of %d terms with %d values and room for %d of its %d row pointers",
			lo, hi, c.rowPtr[hi]-base, len(val), len(ptr), len(rp)))
	}
	ptr = ptr[:len(rp)]
	for i, at := range rp {
		ptr[i] = at - base
	}
	return CheckedCSR{
		rowPtr: ptr, rows: hi - lo, col: c.col[base:], val: val,
		srcRows: c.srcRows, ahead: c.ahead, hinted: max(0, min(c.hinted-lo, hi-lo)),
	}
}

// rowAccF64Go is the portable fp64 row accumulate of at least one term,
// over operands the caller has validated.
func rowAccF64Go(out, alpha []float64, idx []int, src []float64, cont bool) {
	p := len(out)
	for t, a := range alpha {
		row := src[idx[t]*p : idx[t]*p+p]
		if t == 0 && !cont {
			AxpySetG(a, row, out)
		} else {
			AxpyG(a, row, out)
		}
	}
}

// rowAccI8Go is the portable int8 row accumulate.
func rowAccI8Go(out, alpha []int32, idx []int, src []int8, cont bool) {
	p := len(out)
	for t, a := range alpha {
		row := src[idx[t]*p : idx[t]*p+p]
		if t == 0 && !cont {
			AxpyI8Set(a, row, out)
		} else {
			AxpyI8(a, row, out)
		}
	}
}

// Dot returns Σ x[j]·y[j] over j < len(x), accumulating in index order
// with a single accumulator (bit-identical to the naive loop; the unroll
// only removes bounds checks and branch overhead). len(y) must be at
// least len(x).
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		s += xs[0] * ys[0]
		s += xs[1] * ys[1]
		s += xs[2] * ys[2]
		s += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}
