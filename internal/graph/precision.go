package graph

import (
	"fmt"
	"math"

	"gnnvault/internal/mat"
)

// The int8 sparse product. The CSR itself stays float64 — it is sealed
// at deploy time and shared by every plan over the graph — and the kernel
// quantizes the stored values on the fly, one scalar per non-zero. That
// keeps it free of a second materialised value array, which matters for
// the subgraph path where the CSR is re-induced per query: scalar
// quantization is deterministic, so full-graph and re-induced executions
// of the same rows still agree bit-for-bit.

// ValMaxAbs returns the largest absolute stored value (0 when empty),
// the deploy/plan-time input to the int8 kernels' symmetric value scale.
// Partition shards return their parent operator's global maximum so the
// per-shard quantization codes match the unsharded run exactly.
func (na *NormAdjacency) ValMaxAbs() float64 {
	if na.valMaxAbsHint > 0 {
		return na.valMaxAbsHint
	}
	mx := 0.0
	for _, v := range na.Val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// MulDenseI8EpilogueRangeInto computes rows [lo, hi) of the quantized
// product requantize(epilogue(Â·H)) into dst ((hi-lo)×H.Cols, row 0
// pairing with graph row lo). Each CSR value is quantized on the fly
// under valScale (mat.SymmetricScale of ValMaxAbs, chosen by the caller
// per Run so re-induced subgraph CSRs reuse the rule); products
// accumulate in the caller-owned int32 scratch row acc (≥ H.Cols long).
// The SpMM reduction runs over H's rows, so H's per-column scales stay
// constant inside each sum and deq[j] is simply source-column-scale[j] ×
// valScale — no folding needed, unlike MatMul. bias is the float64 bias,
// res/resScales the optional residual codes aligned to dst and their
// per-column scales, dstScales the destination value's per-column scales.
// labels, when non-nil (length ≥ hi-lo), receives each row's wide argmax
// over the pre-requantization epilogue floats (the requantise row of
// mat.CheckedEpilogueI8.ProductRow, which every output row here is one
// call of), labels[0] pairing with graph row lo. Runs inline on the calling
// goroutine and never allocates; int32 accumulation makes the result
// independent of tiling and banding by construction.
func (na *NormAdjacency) MulDenseI8EpilogueRangeInto(dst, h *mat.MatrixI8, lo, hi int, valScale float64, deq, bias []float64, res *mat.MatrixI8, resScales []float64, relu bool, dstScales []float64, acc []int32, labels []int) {
	if h.Rows != na.ColCount() {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto rows %d != n %d", h.Rows, na.ColCount()))
	}
	if lo < 0 || hi > na.N || lo > hi {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto range [%d,%d) out of [0,%d)", lo, hi, na.N))
	}
	if dst.Rows != hi-lo || dst.Cols != h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto destination %s, want %dx%d", dst.Shape(), hi-lo, h.Cols))
	}
	if res != nil && (res.Rows != dst.Rows || res.Cols != dst.Cols) {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto residual %s != destination %s", res.Shape(), dst.Shape()))
	}
	if len(acc) < h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto accumulator length %d < cols %d", len(acc), h.Cols))
	}
	if labels != nil && len(labels) < hi-lo {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto labels length %d < rows %d", len(labels), hi-lo))
	}
	if res == nil {
		resScales = nil
	}
	// The range's proofs, before its first row: the epilogue operands
	// against the column count, the column indices against H's height.
	d := h.Cols
	e := mat.CheckEpilogueI8(d, deq, bias, resScales, dstScales, relu, labels != nil)
	c := na.checkedCols(lo, hi, h.Rows)
	vc := valCodes{scale: valScale, end: na.RowPtr[hi]}
	vc.cols, vc.base = c.Indices()
	acc = acc[:d]
	for i := lo; i < hi; i++ {
		alpha, idx, cont := na.accumRowHeadI8(acc, h, i, &vc)
		var rrow []int8
		if res != nil {
			rrow = res.Data[(i-lo)*d : (i-lo+1)*d]
		}
		am := e.ProductRow(dst.Data[(i-lo)*d:(i-lo+1)*d], acc, alpha, idx, h.Data, rrow, cont)
		if labels != nil {
			labels[i-lo] = am
		}
	}
}

// valCodes is the int8 SpMM's window onto the CSR values: q[:hi-lo]
// holds Val[lo:hi] quantized under scale, as the int32 multipliers the
// row accumulate takes. It is refilled a chunk at a time as the rows of
// one call walk Val — never past end, the call's last value — so the
// codes exist only on the caller's stack, never as an enclave resident.
// cols is the call's range of column indices, from CSR position base on,
// checked once against the source's height (checkedCols).
type valCodes struct {
	scale       float64
	lo, hi, end int
	cols        mat.CheckedIndices
	base        int
	q           [mat.RowChunk]int32
}

// accumRowHeadI8 walks graph row i of the quantized Â·H up to its last
// window of value codes: each earlier window the row touches runs as an
// int8 row accumulate into acc over the matching column indices (a zero
// code contributes an exact zero, so none needs skipping, and exact sums
// make the split at a window's edge free of effect). It returns the last
// stretch — its codes, inside the window, and its column indices; both
// empty for an empty row — for the product row to finish, and whether acc
// holds a sum to continue from.
func (na *NormAdjacency) accumRowHeadI8(acc []int32, h *mat.MatrixI8, i int, vc *valCodes) (alpha []int32, idx mat.CheckedIndices, cont bool) {
	p, end := na.RowPtr[i], na.RowPtr[i+1]
	for p < end {
		if p >= vc.hi {
			vc.lo, vc.hi = p, min(p+len(vc.q), vc.end)
			mat.QuantizeI8WideInto(vc.q[:vc.hi-vc.lo], na.Val[vc.lo:vc.hi], vc.scale)
		}
		if end <= vc.hi {
			alpha = vc.q[p-vc.lo : end-vc.lo]
			break
		}
		mat.RowAccumulateI8(acc, vc.q[p-vc.lo:vc.hi-vc.lo], vc.cols.Slice(p-vc.base, vc.hi-vc.base), h.Data, cont)
		p, cont = vc.hi, true
	}
	return alpha, vc.cols.Slice(p-vc.base, end-vc.base), cont
}
