package mat

import "fmt"

// int8 quantized kernel family. Values are symmetric int8 codes
// (value ≈ code·scale): activations carry one scale per column of each
// program value (per-channel — a per-tensor scale wastes most of the 8
// bits on whichever channel ranges widest), weights one scale per output
// column (QuantizeColumnsI8). A matrix product's reduction runs over the
// source's columns, whose scales vary inside the sum, so the executor
// folds the source's per-column scales into the weight before column
// quantization and the MAC loop stays a pure int8×int8→int32 kernel.
// Products accumulate exactly in int32 — a dot of length-k rows is
// bounded by k·127² ≪ 2³¹ for every width in this codebase — and the
// combined dequantize (acc·deq), float64 bias/residual epilogue and
// requantize to the destination's per-column scales happen in the same
// kernel call that sums the row (one call per op range, productrow.go:
// the row accumulate and the requantise row back to back, row after
// row). Integer accumulation is order-independent, so tiled and direct
// int8 executions are bit-identical without any element-order argument.
//
// The kernels here are serial range forms: the in-enclave executor is
// single-threaded by construction, direct and tiled alike.

// MatMulI8EpilogueInto computes dst = requantize(epilogue(a·w)) over
// int8 codes with int32 accumulation: the quantized counterpart of
// MatMulBiasReLUInto. w must be the folded weight (source per-column
// scales multiplied in before column quantization) and deq its per-column
// scales, bias the float64 bias (nil for none), res/resScales the
// optional residual codes and their per-column scales, dstScales the
// destination value's per-column scales. acc is the caller-owned int32
// scratch row, at least w.Cols long, so the kernel stays alloc-free;
// concurrent callers pass private ones. labels,
// when non-nil (length ≥ a.Rows), receives each row's wide argmax: over
// the pre-requantization epilogue floats, which the exact int32
// accumulator keeps apart where shared int8 codes would collapse them,
// and which — a per-element function of deterministic inputs — label a
// row identically across direct and tiled execution.
// Single-threaded: runs on the calling goroutine.
func MatMulI8EpilogueInto(dst, a, w *MatrixI8, deq, bias []float64, res *MatrixI8, resScales []float64, relu bool, dstScales []float64, acc []int32, labels []int) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto inner dimension mismatch %s · %s", a.Shape(), w.Shape()))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto destination %s, want %dx%d", dst.Shape(), a.Rows, w.Cols))
	}
	if res != nil && (res.Rows != dst.Rows || res.Cols != dst.Cols) {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto residual %s, want %s", res.Shape(), dst.Shape()))
	}
	if len(acc) < w.Cols {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto accumulator length %d < cols %d", len(acc), w.Cols))
	}
	if labels != nil && len(labels) < a.Rows {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto labels length %d < rows %d", len(labels), a.Rows))
	}
	if res == nil {
		resScales = nil
	}
	// Everything the rows read and write unchecked is proved here, once:
	// the epilogue operands by CheckEpilogueI8, and that the input, the
	// weight, the destination, the residual and the accumulator hold what
	// their shapes say; the compaction's indices are in range by
	// construction — positions in an n-long input row, n the weight's
	// height.
	n, p := a.Cols, w.Cols
	e := CheckEpilogueI8(p, deq, bias, resScales, dstScales, relu, labels != nil)
	if len(a.Data) < a.Rows*n || len(dst.Data) < dst.Rows*p {
		panic(fmt.Sprintf("mat: MatMulI8EpilogueInto input %s over %d elements, destination %s over %d", a.Shape(), len(a.Data), dst.Shape(), len(dst.Data)))
	}
	var rdata []int8
	if res != nil {
		if len(res.Data) < res.Rows*p {
			panic(fmt.Sprintf("mat: MatMulI8EpilogueInto residual %s over %d elements", res.Shape(), len(res.Data)))
		}
		rdata = res.Data[:res.Rows*p]
	}
	out := dst.Data[:dst.Rows*p]
	rdata, acc = e.requireRows(out, a.Rows, rdata, acc, w.Data, n)
	if len(out) > 0 {
		denseRangeI8(&e, out, a.Data[:a.Rows*n], n, w.Data, rdata, a.Rows, acc, labels)
	}
}

// compactNonZeroI8Go is compactNonZeroGo over int8 codes.
//
//go:noinline
func compactNonZeroI8Go(ab *[RowChunk]int32, ib *[RowChunk]int, chunk []int8, base int) int {
	m := 0
	for k, v := range chunk {
		ab[m&(RowChunk-1)], ib[m&(RowChunk-1)] = int32(v), base+k
		x := uint32(int32(v))
		m += int((x | -x) >> 31)
	}
	return m
}
