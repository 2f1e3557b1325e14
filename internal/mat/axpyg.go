package mat

// Portable scaled-row accumulates: the Go form of the row-accumulate
// contract (axpy.go) at both element types, and the training transpose
// product's inner loop. Each element receives one multiply and one add
// per term, left to right, which is what holds the portable kernel to
// the assembly's bits.

// AxpyG accumulates y[j] += alpha·x[j] for j < len(x), 8-wide unrolled.
// len(y) must be at least len(x); each y element receives exactly one
// multiply and one add, so the result is bit-identical to the naive loop.
func AxpyG(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
		ys[4] += alpha * xs[4]
		ys[5] += alpha * xs[5]
		ys[6] += alpha * xs[6]
		ys[7] += alpha * xs[7]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AxpySetG writes y[j] = alpha·x[j] — the initialising form of AxpyG,
// which lets the product kernels start each output row from its first
// term instead of zero-filling the destination first.
func AxpySetG(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] = alpha * xs[0]
		ys[1] = alpha * xs[1]
		ys[2] = alpha * xs[2]
		ys[3] = alpha * xs[3]
		ys[4] = alpha * xs[4]
		ys[5] = alpha * xs[5]
		ys[6] = alpha * xs[6]
		ys[7] = alpha * xs[7]
	}
	for ; i < len(x); i++ {
		y[i] = alpha * x[i]
	}
}

// AxpyI8 accumulates y[j] += alpha·x[j] over an int8 row into an int32
// accumulator — the quantized kernel family's inner loop. Integer
// accumulation is exact and order-independent, which is what makes the
// int8 tiled/direct outputs bit-identical without any ordering argument.
func AxpyI8(alpha int32, x []int8, y []int32) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] += alpha * int32(xs[0])
		ys[1] += alpha * int32(xs[1])
		ys[2] += alpha * int32(xs[2])
		ys[3] += alpha * int32(xs[3])
		ys[4] += alpha * int32(xs[4])
		ys[5] += alpha * int32(xs[5])
		ys[6] += alpha * int32(xs[6])
		ys[7] += alpha * int32(xs[7])
	}
	for ; i < len(x); i++ {
		y[i] += alpha * int32(x[i])
	}
}

// AxpyI8Set writes y[j] = alpha·x[j], the initialising form of AxpyI8.
func AxpyI8Set(alpha int32, x []int8, y []int32) {
	y = y[:len(x)]
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xs := x[i : i+8 : i+8]
		ys := y[i : i+8 : i+8]
		ys[0] = alpha * int32(xs[0])
		ys[1] = alpha * int32(xs[1])
		ys[2] = alpha * int32(xs[2])
		ys[3] = alpha * int32(xs[3])
		ys[4] = alpha * int32(xs[4])
		ys[5] = alpha * int32(xs[5])
		ys[6] = alpha * int32(xs[6])
		ys[7] = alpha * int32(xs[7])
	}
	for ; i < len(x); i++ {
		y[i] = alpha * int32(x[i])
	}
}
