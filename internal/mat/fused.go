package mat

import (
	"fmt"
	"math"
	"sync"
)

// Epilogue-fused kernels. The exec engine's fusion pass folds the
// element-wise consumers of a matrix product — bias add, residual add,
// ReLU — into the producing op, so the product's output tile is finished
// in one pass while it is still cache- (and, tiled, EPC-) resident instead
// of being flushed and re-read once per element-wise op. The epilogue is
// applied in the canonical order bias → residual → activation, which is
// the only order the fusion pass folds, and each step performs exactly the
// float operations of its standalone kernel (AddBiasInto, AddInto,
// ReLUInto) in the same element order — fused results are bit-identical to
// the unfused program by construction.
//
// Composition. On the fp64 product paths the epilogue is not a pass over
// a stored row: the range entries below (axpy.go, the range clause)
// finish each block of accumulators — bias add, residual add, ReLU, in
// that order — before the block's single store. That is allowed
// to be exactly ApplyEpilogueRow after the row accumulate and nothing
// else: the adds are the same IEEE additions on the same operands in the
// same order (VADDPD with the accumulator as first source, never FMA),
// made on the very sums the row accumulate would have stored, and the
// in-register ReLU is VMAXPD with +0 as its second source, which is
// reluF64's table:
//
//   - v > 0, +Inf included: max(v, +0) = v;
//   - v < 0, −Inf included: max(v, +0) = +0;
//   - v = ±0 or NaN: the instruction answers its second source, +0.
//
// The portable build, and the oracle the assembly is held to, is literally
// ApplyEpilogueRow after rowAccF64Go, row by row.

// ApplyEpilogueRow is the single definition of the fused ops' epilogue:
// drow gains bias (broadcast; len(bias) must equal len(drow) when
// non-nil), then rrow (element-wise, likewise), then ReLU (with
// ReLUInto's exact semantics: non-positive and NaN entries become +0).
// It is unchecked — kernels validate shapes once up front and then
// finish each output row while it is cache-hot. Exported so sibling
// packages' fused kernels (graph's sparse product) share it.
func ApplyEpilogueRow(drow, bias, rrow []float64, relu bool) {
	switch {
	case bias != nil && rrow == nil && relu:
		// The dominant fused tail (GCN conv): one pass instead of two,
		// same per-element operation order.
		for j, bv := range bias {
			drow[j] = reluF64(drow[j] + bv)
		}
		return
	case bias != nil:
		for j, bv := range bias {
			drow[j] += bv
		}
	}
	if rrow != nil {
		for j, rv := range rrow {
			drow[j] += rv
		}
	}
	if relu {
		for j, v := range drow {
			drow[j] = reluF64(v)
		}
	}
}

// reluF64 returns v when v > 0 and +0 otherwise (negatives, −0 and NaN
// alike — ReLUInto's semantics) without a branch: pre-activation values
// are of either sign about equally often, so a branch here mispredicts
// on half its inputs. v > 0 exactly when its bits lie in [1, +Inf's],
// i.e. bits−1 is below +Inf's bits as an unsigned number.
func reluF64(v float64) float64 {
	const inf = 0x7FF0000000000000
	b := math.Float64bits(v)
	t := b - 1
	keep := uint64(int64((t-inf)&^t) >> 63) // all ones iff t < inf, unsigned
	return math.Float64frombits(b & keep)
}

// CheckedEpilogue is the epilogue operands of one fp64 product op, proved
// to fit the product's destination: the optional bias, one per column;
// the optional residual, as many rows and columns as the destination;
// and the ReLU flag. Only CheckEpilogue mints one, once per op and before
// the op's first row is written — what CheckCSR is to a range's column
// indices and CheckedEpilogueI8 to the int8 epilogue — so the range
// entries, which read these operands unchecked, cannot be reached with a
// short one. The zero value is no epilogue at all. The
// value aliases the caller's slices, which must not change while it is in
// use.
type CheckedEpilogue struct {
	rows, cols int
	bias       []float64
	res        []float64 // rows×cols, row-major
	relu       bool
}

// CheckEpilogue proves the epilogue operands of an fp64 product into a
// rows×cols destination: bias cols long or nil, res rows×cols (and
// holding that many elements) or nil. It panics on the first operand
// that does not fit — before the caller has written anything.
func CheckEpilogue(rows, cols int, bias []float64, res *Matrix, relu bool) CheckedEpilogue {
	if rows < 0 || cols < 0 || (bias != nil && len(bias) != cols) {
		panic(fmt.Sprintf("mat: product epilogue of %dx%d with a bias of length %d", rows, cols, len(bias)))
	}
	e := CheckedEpilogue{rows: rows, cols: cols, bias: bias, relu: relu}
	if res != nil {
		if res.Rows != rows || res.Cols != cols || len(res.Data) < rows*cols {
			panic(fmt.Sprintf("mat: product epilogue of %dx%d with a residual %s over %d elements", rows, cols, res.Shape(), len(res.Data)))
		}
		e.res = res.Data[:rows*cols]
	}
	return e
}

// applyRow finishes destination row r, already summed, in Go.
func (e *CheckedEpilogue) applyRow(drow []float64, r int) {
	var rrow []float64
	if e.res != nil {
		rrow = e.res[r*e.cols : (r+1)*e.cols]
	}
	ApplyEpilogueRow(drow, e.bias, rrow, e.relu)
}

// requireRows panics unless dst is rows whole rows of the product and
// they are destination rows [r0, r0+rows) of the op e was checked for.
func (e *CheckedEpilogue) requireRows(dst []float64, rows, r0 int) {
	if len(dst) != rows*e.cols || r0 < 0 || r0+rows > e.rows {
		panic(fmt.Sprintf("mat: product rows [%d,%d) of a %dx%d destination into %d elements", r0, r0+rows, e.rows, e.cols, len(dst)))
	}
}

// SparseRange computes the rows of c times the e.cols-wide rows of src
// into dst — len(dst) = rows·cols, destination rows [r0, r0+rows) of the
// op e was checked for — each finished by e's epilogue: the range
// clause of the row contract (axpy.go), one kernel call for all of them.
// Everything per element was proved when c and e were minted; what is
// checked here is constant work.
func (e *CheckedEpilogue) SparseRange(dst []float64, c *CheckedCSR, src []float64, r0 int) {
	e.requireRows(dst, c.rows, r0)
	if c.srcRows*e.cols > len(src) {
		panic(fmt.Sprintf("mat: sparse range checked against %d rows of %d over a source of %d elements", c.srcRows, e.cols, len(src)))
	}
	if len(dst) > 0 {
		sparseRangeF64(e, dst, c, src, r0)
	}
}

// productRowF64Go, sparseRangeF64Go and denseRangeF64Go are the portable
// product row and ranges — the whole of the purego build, and the oracle
// the assembly is held to: literally the Go loop of rowAccF64Go, then
// ApplyEpilogueRow, per row.
func productRowF64Go(e *CheckedEpilogue, out, alpha []float64, idx []int, src []float64, r int) {
	if len(alpha) > 0 {
		rowAccF64Go(out, alpha, idx, src, false)
	} else {
		clear(out)
	}
	e.applyRow(out, r)
}

func sparseRangeF64Go(e *CheckedEpilogue, dst []float64, c *CheckedCSR, src []float64, r0 int) {
	p := e.cols
	for i := 0; i < c.rows; i++ {
		at, end := c.rowPtr[i], c.rowPtr[i+1]
		productRowF64Go(e, dst[i*p:(i+1)*p], c.val[at:end], c.col[at:end], src, r0+i)
	}
}

func denseRangeF64Go(e *CheckedEpilogue, dst, a []float64, n int, b []float64, rows, r0 int) {
	p := e.cols
	var ab [RowChunk]float64
	var ib [RowChunk]int
	for i := 0; i < rows; i++ {
		arow, orow := a[i*n:(i+1)*n], dst[i*p:(i+1)*p]
		cont := false
		for k0 := 0; k0 < n; k0 += RowChunk {
			if m := compactNonZeroGo(&ab, &ib, arow[k0:min(k0+RowChunk, n)], k0); m > 0 {
				rowAccF64Go(orow, ab[:m], ib[:m], b, cont)
				cont = true
			}
		}
		if !cont {
			clear(orow)
		}
		e.applyRow(orow, r0+i)
	}
}

// MatMulBiasReLUInto computes dst = epilogue(a·b): the banded product
// under a per-call worker budget (workers <= 0 resolves to GOMAXPROCS, 1
// runs inline on the calling goroutine, larger budgets are clamped to the
// row count — ResolveWorkers) with the optional bias/residual/ReLU
// epilogue applied to each row band while it is still hot, saving the
// separate full-matrix passes (and, on the tiled engine, their spill
// flushes). Any of bias, res may be nil and relu false — with all three
// unset this is the plain product, the form MatMulInto and
// MatMulSerialInto run. dst must be a.Rows×b.Cols and must not alias a, b
// or res. Results are bit-identical to running the unfused op sequence.
func MatMulBiasReLUInto(dst, a, b *Matrix, bias []float64, res *Matrix, relu bool, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulBiasReLUInto inner dimension mismatch %s · %s", a.Shape(), b.Shape()))
	}
	dst.requireShape(a.Rows, b.Cols, "MatMulBiasReLUInto")
	RequireNoAlias(dst, a, "mat: MatMulBiasReLUInto")
	RequireNoAlias(dst, b, "mat: MatMulBiasReLUInto")
	if res != nil {
		RequireNoAlias(dst, res, "mat: MatMulBiasReLUInto")
	}
	e := CheckEpilogue(dst.Rows, dst.Cols, bias, res, relu)
	ops := a.Rows * a.Cols * b.Cols
	w := ResolveWorkers(workers, a.Rows)
	if ops < parallelThreshold || w == 1 {
		matMulEpilogueRange(a, b, dst, 0, a.Rows, &e)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := min(lo+chunk, a.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		// e by value: captured, it would move to the heap on the inline
		// path too, which must not allocate.
		go func(lo, hi int, e CheckedEpilogue) {
			defer wg.Done()
			matMulEpilogueRange(a, b, dst, lo, hi, &e)
		}(lo, hi, e)
	}
	wg.Wait()
}

// matMulEpilogueRange computes rows [lo,hi) of the product, each
// finished by e's epilogue, as one dense range: output row i is the row
// contract (axpy.go) over the non-zero entries of a's row i — post-ReLU
// activations are roughly half zeros, and each one dropped saves a whole
// row of MACs — compacted branch-free a RowChunk window at a time, their
// positions the row indices. Those are checked by construction against
// a.Cols rows, the inner dimension the driver's shape check holds equal
// to b.Rows, so what is left to prove here, once and before the first
// row, is that the operands hold what their shapes say. The destination
// needs no prior zeroing; an all-zero input row clears its row. Rows are
// independent, so the element order — and therefore the bits — are those
// of the unfused op sequence.
func matMulEpilogueRange(a, b, dst *Matrix, lo, hi int, e *CheckedEpilogue) {
	n, p := a.Cols, b.Cols
	if len(a.Data) < a.Rows*n || len(b.Data) < n*p || len(dst.Data) < dst.Rows*p {
		panic(fmt.Sprintf("mat: product %s · %s into %s over %d, %d and %d elements", a.Shape(), b.Shape(), dst.Shape(), len(a.Data), len(b.Data), len(dst.Data)))
	}
	out := dst.Data[lo*p : hi*p]
	e.requireRows(out, hi-lo, lo)
	if len(out) > 0 {
		denseRangeF64(e, out, a.Data[lo*n:hi*n], n, b.Data, hi-lo, lo)
	}
}
