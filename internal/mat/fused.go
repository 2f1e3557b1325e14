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
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("mat: MatMulBiasReLUInto bias length %d != cols %d", len(bias), dst.Cols))
	}
	if res != nil {
		RequireNoAlias(dst, res, "mat: MatMulBiasReLUInto")
		res.requireShape(dst.Rows, dst.Cols, "MatMulBiasReLUInto residual")
	}
	ops := a.Rows * a.Cols * b.Cols
	w := ResolveWorkers(workers, a.Rows)
	if ops < parallelThreshold || w == 1 {
		matMulEpilogueRange(a, b, dst, 0, a.Rows, bias, res, relu)
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
		go func(lo, hi int) {
			defer wg.Done()
			matMulEpilogueRange(a, b, dst, lo, hi, bias, res, relu)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulEpilogueRange computes rows [lo,hi) of the product and applies
// the epilogue to each row while it is still cache-hot instead of in a
// trailing full pass — rows are independent, so the element order, and
// therefore the bits, are unchanged. The caller validated epilogue
// shapes; with no epilogue set this is the plain banded product body.
func matMulEpilogueRange(a, b, dst *Matrix, lo, hi int, bias []float64, res *Matrix, relu bool) {
	n, p := a.Cols, b.Cols
	epi := bias != nil || res != nil || relu
	var ab [RowChunk]float64
	var ib [RowChunk]int
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*p : (i+1)*p]
		matMulRow(a.Data[i*n:(i+1)*n], b, orow, &ab, &ib)
		if epi {
			var rrow []float64
			if res != nil {
				rrow = res.Data[i*p : (i+1)*p]
			}
			ApplyEpilogueRow(orow, bias, rrow, relu)
		}
	}
}
