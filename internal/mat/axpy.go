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
// The fp64 form has one more clause, the look-ahead: the caller may pass
// the indices it will ask for next — SpMM passes a CSR row a fixed
// distance on — and an implementation may use them to start fetching
// those source rows while it sums this one. They are hints and nothing
// else: never validated, the rows they name never read, any length (none,
// fewer or more than the row's own terms) and any value (out of range
// included) allowed, and no bit of out depends on them. The assembly
// issues prefetches for them where that pays (rowacc_amd64.go has the
// rule and its measurements); the portable kernel ignores them. The int8
// form takes none: its sources are an eighth the size and L2-resident
// at the graph sizes served here.
//
// The kernels read src unchecked, so the indices reach them already
// proved: idx is a CheckedIndices, minted by CheckIndices against a source
// height — once per op range by the sparse products and the attention
// aggregate (a CSR's ColIdx[RowPtr[lo]:RowPtr[hi]], before the range's
// first row is written), by construction in the dense products (the
// compaction emits positions of an input row whose length the shape
// checks hold equal to the weight's height) — and sliced per row. What is
// left to check per call is constant work: the lengths, and that the
// source holds the rows the indices were proved against. The hints stay
// unvalidated on purpose: validating a hint would cost what the hint is
// meant to save, and nothing ever dereferences one — the assembly turns
// it into a prefetch, which cannot fault, and the portable kernel drops
// it.
//
// The contract has exactly two implementations: AVX2 assembly on amd64
// (rowacc_amd64.s, chosen once at init from CPUID) and the portable Go
// below, which is the fallback everywhere else, the only implementation
// under the purego build tag, and the oracle the differential tests hold
// the assembly to. Both perform the same IEEE operations on the same
// operands in the same order for every output element, so they agree to
// the last bit, and — each output row coming from one kernel call chain
// in one order regardless of how rows are grouped — tiled == direct,
// sharded == single and fused == unfused hold by row independence. The
// int8 form accumulates exactly in int32 and is order-free.
//
// Composition. An int8 product's output row is this contract followed by
// the requantise row (requant.go), and the three int8 drivers issue the
// pair as one call, CheckedEpilogueI8.ProductRow (productrow.go). That
// entry is allowed to be exactly the two contracts back to back: the sums
// it requantises are the sums RowAccumulateI8 would have left in acc
// (exact, so how they are held — registers, or acc itself — is invisible),
// and no operation of either contract is dropped, added or reordered. Its
// portable form is literally requantRowGo after rowAccI8Go. Validation
// moves, it is never dropped: the per-column operands are proved once per
// op range, before the range's first row is written — the indices by
// CheckIndices, the epilogue operands by CheckEpilogueI8 — and what is
// left per row is constant work (slice lengths, one index per multiplier,
// the source holding the rows the indices were proved against). A row
// with more multipliers than one call takes (a RowChunk window of
// compacted codes or of quantised edge values) runs every window but its
// last through RowAccumulateI8 and the last through ProductRow with cont
// set.
//
// The over-read rule. int8 rows are narrower than the eight bytes the
// assembly widens at a time, so a row's last cols mod 8 columns are read
// by a narrowed load, and the rule for it is: no load touches a byte
// outside src[0 : idx.rows·cols]. The assembly keeps it by loading the
// eight bytes at A = min(W, L), W the address of the wanted columns and
// L = &src[idx.rows·cols − 8] the source's final eight bytes, and
// shifting the W − A bytes below them out. Proof: if W ≤ L the load ends
// at W + 8 ≤ L + 8, the source's end. Otherwise A = L < W, the load is
// the source's final eight bytes, and since the r wanted columns lie
// inside the source, W + r ≤ L + 8, i.e. W − A ≤ 8 − r: after the shift
// at least r bytes remain and the first is the byte at W. A ≥ &src[0]
// needs idx.rows·cols ≥ 8, which holds for every row of eight columns or
// more; a narrower row over a source shorter than eight codes never
// reaches the assembly (productRowI8). The last source row is the only
// one for which W > L can hold when cols < 8, and
// TestProductRowI8Differential reads it flush against an unreadable page.

// RowChunk is how many multipliers the products hand the kernel per
// call from their stack buffers — the dense products' compacted
// multiplicands here, the int8 SpMM's quantized edge values in
// internal/graph; longer rows continue onto the output row chunk by
// chunk.
const RowChunk = 128

// CheckedIndices is a list of source-row indices proved to lie in
// [0, rows) for a source of rows rows — the only form the row accumulate
// takes its indices in. Only CheckIndices mints one from caller data, and
// slicing keeps the proof, so a product validates the indices of a whole
// op range once (a CSR's ColIdx[RowPtr[lo]:RowPtr[hi]]) and hands the
// kernel one row's slice at a time; a kernel that reads unchecked cannot
// be reached with anything else. The value aliases the caller's slice,
// which must not change while the value is in use.
type CheckedIndices struct {
	idx  []int
	rows int
}

// CheckIndices proves every index in idx names a row of a rows-high
// source and panics on the first that does not — before the caller has
// written anything.
func CheckIndices(idx []int, rows int) CheckedIndices {
	if rows < 0 {
		panic(fmt.Sprintf("mat: indices checked against %d rows", rows))
	}
	for _, c := range idx {
		if uint(c) >= uint(rows) {
			panic(fmt.Sprintf("mat: row accumulate index %d out of range [0,%d)", c, rows))
		}
	}
	return CheckedIndices{idx, rows}
}

// Slice returns the checked indices [lo, hi) of c.
func (c CheckedIndices) Slice(lo, hi int) CheckedIndices {
	return CheckedIndices{c.idx[lo:hi], c.rows}
}

// RowAccumulate computes the fp64 row accumulate into out (p = len(out)):
// src is a row-major matrix of p-wide rows, idx[t] names the row scaled
// by alpha[t]. With cont set the sum continues onto out's current
// contents instead of starting from the bare first product — how callers
// feed one long row through in chunks. ahead is the look-ahead operand
// (nil for none). The indices arrive checked (CheckedIndices: each one
// was compared against a source height when the caller minted them, once
// per op range rather than once per row), so what is validated here,
// before either implementation runs, is constant work: one index per
// multiplier, and a source at least that many p-wide rows long. A corrupt
// index therefore still panics instead of reading out of bounds — at
// CheckIndices. ahead is deliberately not validated anywhere: hints are
// never dereferenced.
func RowAccumulate(out, alpha []float64, idx CheckedIndices, src []float64, cont bool, ahead []int) {
	requireRowAcc(len(out), len(alpha), idx, len(src))
	switch {
	case len(alpha) > 0 && len(out) > 0:
		rowAccF64(out, alpha, idx.idx, src, cont, ahead)
	case !cont:
		clear(out)
	}
}

// RowAccumulateI8 is RowAccumulate over int8 rows with int32 multipliers
// and an exact int32 accumulator.
func RowAccumulateI8(out, alpha []int32, idx CheckedIndices, src []int8, cont bool) {
	requireRowAcc(len(out), len(alpha), idx, len(src))
	switch {
	case len(alpha) > 0 && len(out) > 0:
		rowAccI8(out, alpha, idx.idx, src, cont)
	case !cont:
		clear(out)
	}
}

// requireRowAcc validates one row-accumulate call: one index per
// multiplier, and every row the indices were checked against a whole
// p-wide row inside src.
func requireRowAcc(p, terms int, idx CheckedIndices, srcLen int) {
	if len(idx.idx) != terms {
		panic(fmt.Sprintf("mat: row accumulate with %d multipliers but %d indices", terms, len(idx.idx)))
	}
	if idx.rows*p > srcLen {
		panic(fmt.Sprintf("mat: row accumulate indices checked against %d rows of %d over a source of %d elements", idx.rows, p, srcLen))
	}
}

// rowAccF64Go is the portable fp64 row accumulate. Like the assembly it
// stands in for, it takes operands the caller has validated and at least
// one term.
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
