//go:build !amd64 || purego

package mat

// Without the assembly kernels every product range, row accumulate,
// requantise row and product row runs the portable implementation.

func productRowF64(e *CheckedEpilogue, out, alpha []float64, idx []int, src []float64, r int, cont bool, _ []int) {
	productRowF64Go(e, out, alpha, idx, src, r, cont)
}

func sparseRangeF64(e *CheckedEpilogue, dst []float64, c *CheckedCSR, src []float64, r0 int) {
	sparseRangeF64Go(e, dst, c, src, r0)
}

func denseRangeF64(e *CheckedEpilogue, dst, a []float64, n int, b []float64, rows, r0 int) {
	denseRangeF64Go(e, dst, a, n, b, rows, r0)
}

func rowAccI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	rowAccI8Go(out, alpha, idx, src, cont)
}

func compactNonZeroI8(ab *[RowChunk]int32, ib *[RowChunk]int, chunk []int8, base int) int {
	return compactNonZeroI8Go(ab, ib, chunk, base)
}

func requantRow(dst8 []int8, dst32 []int32, n int, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu, argmax bool) int {
	return requantRowGo(dst8, dst32, n, acc, deq, bias, res, resScales, scales, scale, relu, argmax)
}

func productRowI8(e *CheckedEpilogueI8, dst []int8, acc, alpha []int32, idx CheckedIndices, src, res []int8, cont bool) int {
	return productRowI8Go(e, dst, acc, alpha, idx.idx, src, res, cont)
}
