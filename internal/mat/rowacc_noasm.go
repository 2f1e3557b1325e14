//go:build !amd64 || purego

package mat

// Without the assembly kernels every row accumulate, requantise row and
// product row runs the portable implementation.

func rowAccF64(out, alpha []float64, idx []int, src []float64, cont bool, _ []int) {
	rowAccF64Go(out, alpha, idx, src, cont)
}

func rowAccI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	rowAccI8Go(out, alpha, idx, src, cont)
}

func compactNonZero(ab *[RowChunk]float64, ib *[RowChunk]int, chunk []float64, base int) int {
	return compactNonZeroGo(ab, ib, chunk, base)
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
