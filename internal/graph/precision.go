package graph

import (
	"fmt"
	"math"
	"sync"

	"gnnvault/internal/mat"
)

// Reduced-precision sparse products. The CSR itself stays float64 — it
// is sealed at deploy time and shared by every plan over the graph — and
// each kernel narrows (fp32) or quantizes (int8) the stored values on
// the fly, one scalar per non-zero. That keeps the families free of a
// second materialised value array, which matters for the subgraph path
// where the CSR is re-induced per query: scalar conversion is
// deterministic, so full-graph and re-induced executions of the same
// rows still agree bit-for-bit within a precision.

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

// accumRow32 computes graph row i of Â·H into orow over float32,
// narrowing each CSR value as it is consumed, four (then two, then one)
// non-zeros at a time through the generic multi-stream axpy forms. The
// per-element order is that of the one-at-a-time loop, so the fp32 bits
// are pinned across direct/tiled/banded execution.
func (na *NormAdjacency) accumRow32(orow []float32, h *mat.Matrix32, i int) {
	d := h.Cols
	p, end := na.RowPtr[i], na.RowPtr[i+1]
	switch {
	case end-p >= 4:
		c1, c2, c3, c4 := na.ColIdx[p], na.ColIdx[p+1], na.ColIdx[p+2], na.ColIdx[p+3]
		mat.Axpy4SetG(
			float32(na.Val[p]), h.Data[c1*d:(c1+1)*d],
			float32(na.Val[p+1]), h.Data[c2*d:(c2+1)*d],
			float32(na.Val[p+2]), h.Data[c3*d:(c3+1)*d],
			float32(na.Val[p+3]), h.Data[c4*d:(c4+1)*d],
			orow)
		p += 4
	case end-p >= 2:
		c1, c2 := na.ColIdx[p], na.ColIdx[p+1]
		mat.Axpy2SetG(float32(na.Val[p]), h.Data[c1*d:(c1+1)*d], float32(na.Val[p+1]), h.Data[c2*d:(c2+1)*d], orow)
		p += 2
	case end-p == 1:
		c := na.ColIdx[p]
		mat.AxpySetG(float32(na.Val[p]), h.Data[c*d:(c+1)*d], orow)
		p++
	default:
		clear(orow)
		return
	}
	for ; p+4 <= end; p += 4 {
		c1, c2, c3, c4 := na.ColIdx[p], na.ColIdx[p+1], na.ColIdx[p+2], na.ColIdx[p+3]
		mat.Axpy4G(
			float32(na.Val[p]), h.Data[c1*d:(c1+1)*d],
			float32(na.Val[p+1]), h.Data[c2*d:(c2+1)*d],
			float32(na.Val[p+2]), h.Data[c3*d:(c3+1)*d],
			float32(na.Val[p+3]), h.Data[c4*d:(c4+1)*d],
			orow)
	}
	if p+2 <= end {
		c1, c2 := na.ColIdx[p], na.ColIdx[p+1]
		mat.Axpy2G(float32(na.Val[p]), h.Data[c1*d:(c1+1)*d], float32(na.Val[p+1]), h.Data[c2*d:(c2+1)*d], orow)
		p += 2
	}
	if p < end {
		c := na.ColIdx[p]
		mat.AxpyG(float32(na.Val[p]), h.Data[c*d:(c+1)*d], orow)
	}
}

// MulDense32BiasReLURangeInto computes rows [lo, hi) of
// epilogue(Â·H) over float32 into dst ((hi-lo)×H.Cols, row 0 pairing
// with graph row lo; res aligned to dst likewise). H must span all N
// rows. The fp32 counterpart of MulDenseBiasReLURangeInto: runs inline
// on the calling goroutine and never allocates.
func (na *NormAdjacency) MulDense32BiasReLURangeInto(dst, h *mat.Matrix32, lo, hi int, bias []float32, res *mat.Matrix32, relu bool) {
	na.require32(dst, h, lo, hi, hi-lo, bias, res, "graph: MulDense32BiasReLURangeInto")
	d := h.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[(i-lo)*d : (i-lo+1)*d]
		na.accumRow32(drow, h, i)
		if bias != nil || res != nil || relu {
			var rrow []float32
			if res != nil {
				rrow = res.Data[(i-lo)*d : (i-lo+1)*d]
			}
			mat.ApplyEpilogueRow32(drow, bias, rrow, relu)
		}
	}
}

// MulDense32BiasReLUInto is the full-height fused fp32 product dst =
// epilogue(Â·H), parallelised over nnz-balanced row bands under an
// explicit worker budget — the kernel fused OpSpMM ops run on fp32
// direct machines. res, when non-nil, must match dst's shape.
func (na *NormAdjacency) MulDense32BiasReLUInto(dst, h *mat.Matrix32, bias []float32, res *mat.Matrix32, relu bool, workers int) {
	na.require32(dst, h, 0, na.N, na.N, bias, res, "graph: MulDense32BiasReLUInto")
	w := mat.ResolveWorkers(workers, na.N)
	if w <= 1 || na.N < 256 {
		na.mulDense32Range(dst, h, 0, na.N, bias, res, relu)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := na.NNZBound(0, na.N, i, w)
		hi := na.NNZBound(0, na.N, i+1, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			na.mulDense32Range(dst, h, lo, hi, bias, res, relu)
		}(lo, hi)
	}
	wg.Wait()
}

// mulDense32Range accumulates rows [lo,hi) of Â·H into the same-indexed
// rows of dst with the per-row epilogue; the caller validated operands.
func (na *NormAdjacency) mulDense32Range(dst, h *mat.Matrix32, lo, hi int, bias []float32, res *mat.Matrix32, relu bool) {
	d := h.Cols
	epi := bias != nil || res != nil || relu
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*d : (i+1)*d]
		na.accumRow32(drow, h, i)
		if epi {
			var rrow []float32
			if res != nil {
				rrow = res.Data[i*d : (i+1)*d]
			}
			mat.ApplyEpilogueRow32(drow, bias, rrow, relu)
		}
	}
}

// require32 validates a fp32 kernel call: dst is dstRows×H.Cols, H spans
// all N rows, [lo,hi) in range, epilogue operands shaped, no aliasing.
// op must arrive pre-prefixed ("graph: …") so the happy path performs no
// string concatenation — these checks run on every hot-loop call.
func (na *NormAdjacency) require32(dst, h *mat.Matrix32, lo, hi, dstRows int, bias []float32, res *mat.Matrix32, op string) {
	if h.Rows != na.ColCount() {
		panic(fmt.Sprintf("%s rows %d != n %d", op, h.Rows, na.ColCount()))
	}
	if lo < 0 || hi > na.N || lo > hi {
		panic(fmt.Sprintf("%s range [%d,%d) out of [0,%d)", op, lo, hi, na.N))
	}
	if dst.Rows != dstRows || dst.Cols != h.Cols {
		panic(fmt.Sprintf("%s destination %s, want %dx%d", op, dst.Shape(), dstRows, h.Cols))
	}
	mat.RequireNoAlias32(dst, h, op)
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("%s bias length %d != cols %d", op, len(bias), dst.Cols))
	}
	if res != nil {
		mat.RequireNoAlias32(dst, res, op)
		if res.Rows != dst.Rows || res.Cols != dst.Cols {
			panic(fmt.Sprintf("%s residual %s != destination %s", op, res.Shape(), dst.Shape()))
		}
	}
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
// over the pre-requantization epilogue floats (mat.RequantizeRow),
// labels[0] pairing with graph row lo. Runs inline on the calling
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
	if len(deq) != h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto deq length %d != cols %d", len(deq), h.Cols))
	}
	if bias != nil && len(bias) != h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto bias length %d != cols %d", len(bias), h.Cols))
	}
	if res != nil && (res.Rows != dst.Rows || res.Cols != dst.Cols) {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto residual %s != destination %s", res.Shape(), dst.Shape()))
	}
	if len(dstScales) != h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto dstScales length %d != cols %d", len(dstScales), h.Cols))
	}
	if len(acc) < h.Cols {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto accumulator length %d < cols %d", len(acc), h.Cols))
	}
	if labels != nil && len(labels) < hi-lo {
		panic(fmt.Sprintf("graph: MulDenseI8EpilogueRangeInto labels length %d < rows %d", len(labels), hi-lo))
	}
	d := h.Cols
	vc := valCodes{scale: valScale, end: na.RowPtr[hi]}
	for i := lo; i < hi; i++ {
		na.accumRowI8(acc[:d], h, i, &vc)
		var rrow []int8
		if res != nil {
			rrow = res.Data[(i-lo)*d : (i-lo+1)*d]
		}
		am := mat.RequantizeRow(dst.Data[(i-lo)*d:(i-lo+1)*d], acc, deq, bias, rrow, resScales, dstScales, relu, labels != nil)
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
type valCodes struct {
	scale       float64
	lo, hi, end int
	q           [mat.RowChunk]int32
}

// accumRowI8 accumulates graph row i of the quantized Â·H into acc: the
// row's stored values run as int8 row accumulates over the matching
// column indices, one per window of codes the row touches (a zero code
// contributes an exact zero, so none needs skipping, and exact sums make
// the split at a window's edge free of effect).
func (na *NormAdjacency) accumRowI8(acc []int32, h *mat.MatrixI8, i int, vc *valCodes) {
	cont := false
	for p, end := na.RowPtr[i], na.RowPtr[i+1]; p < end; {
		if p >= vc.hi {
			vc.lo, vc.hi = p, min(p+len(vc.q), vc.end)
			mat.QuantizeI8WideInto(vc.q[:vc.hi-vc.lo], na.Val[vc.lo:vc.hi], vc.scale)
		}
		e := min(end, vc.hi)
		mat.RowAccumulateI8(acc, vc.q[p-vc.lo:e-vc.lo], na.ColIdx[p:e], h.Data, cont)
		p, cont = e, true
	}
	if !cont {
		clear(acc)
	}
}
