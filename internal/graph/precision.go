package graph

import (
	"fmt"
	"math"

	"gnnvault/internal/mat"
)

// The int8 sparse product. The CSR itself stays float64 — it is sealed
// at deploy time and shared by every plan over the graph — and the kernel
// quantizes the stored values on the fly, each as mat.QuantizeI8 defines,
// never holding more than a mat.RowChunk window of codes. That keeps it
// free of a second materialised value array, which matters for the
// subgraph path where the CSR is re-induced per query: quantization is a
// function of the value and the scale alone, so full-graph and re-induced
// executions of the same rows still agree bit-for-bit.

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
// mat.CheckedEpilogueI8.SparseRange, which the whole range here is one
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
	// against the column count, the row pointers and column indices
	// against the operator and H's height (checkedCols), and that H, the
	// destination and the residual hold what their shapes say — the
	// kernel reads and writes all of it unchecked.
	d := h.Cols
	e := mat.CheckEpilogueI8(d, deq, bias, resScales, dstScales, relu, labels != nil)
	c := na.checkedCols(lo, hi, h.Rows)
	if len(h.Data) < h.Rows*d || len(dst.Data) < dst.Rows*d || (res != nil && len(res.Data) < res.Rows*d) {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto source %s, destination %s or residual over fewer elements than their shapes (%d, %d)", h.Shape(), dst.Shape(), len(h.Data), len(dst.Data)))
	}
	var rdata []int8
	if res != nil {
		rdata = res.Data[:res.Rows*d]
	}
	e.SparseRange(dst.Data[:dst.Rows*d], &c, valScale, h.Data, rdata, acc, labels)
}
