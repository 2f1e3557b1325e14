//go:build !amd64 || purego

package mat

// Without the assembly kernels every product range and requantise row
// runs the portable implementation.

func sparseRangeF64(e *CheckedEpilogue, dst []float64, c *CheckedCSR, src []float64, r0 int) {
	sparseRangeF64Go(e, dst, c, src, r0)
}

func denseRangeF64(e *CheckedEpilogue, dst, a []float64, n int, b []float64, rows, r0 int) {
	denseRangeF64Go(e, dst, a, n, b, rows, r0)
}

func sparseRangeI8(e *CheckedEpilogueI8, dst []int8, c *CheckedCSR, valScale float64, src, res []int8, acc []int32, labels []int) {
	sparseRangeI8Go(e, dst, c, valScale, src, res, acc, labels)
}

func denseRangeI8(e *CheckedEpilogueI8, dst, a []int8, n int, w, res []int8, rows int, acc []int32, labels []int) {
	denseRangeI8Go(e, dst, a, n, w, res, rows, acc, labels)
}

func requantRow(dst []int8, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu bool) {
	requantRowGo(dst, acc, deq, bias, res, resScales, scales, scale, relu, false)
}
