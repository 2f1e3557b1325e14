//go:build !amd64 || purego

package mat

// Without the assembly kernels every row accumulate runs the portable
// implementation.

func rowAccF64(out, alpha []float64, idx []int, src []float64, cont bool) {
	rowAccF64Go(out, alpha, idx, src, cont)
}

func rowAccI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	rowAccI8Go(out, alpha, idx, src, cont)
}

func compactNonZero(ab *[compactChunk]float64, ib *[compactChunk]int, chunk []float64, base int) int {
	return compactNonZeroGo(ab, ib, chunk, base)
}

func compactNonZeroI8(ab *[compactChunk]int32, ib *[compactChunk]int, chunk []int8, base int) int {
	return compactNonZeroI8Go(ab, ib, chunk, base)
}
