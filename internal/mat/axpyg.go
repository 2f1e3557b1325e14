package mat

// Generic scaled-row accumulates. AxpyG/AxpySetG instantiated at float64
// are the portable fp64 row-accumulate kernel (axpy.go) and the training
// transpose product's inner loop; the float32 kernel family instantiates
// the whole set, multi-stream forms included, with F = float32. Every
// form keeps one per-element accumulation order — a separate multiply and
// add per term, left to right — so tiled-vs-direct bit-identity holds
// within each precision.

// Float constrains the generic axpy kernels to the element types the
// kernel families support.
type Float interface {
	~float32 | ~float64
}

// AxpyG accumulates y[j] += alpha·x[j] for j < len(x), 8-wide unrolled.
// len(y) must be at least len(x); each y element receives exactly one
// multiply and one add, so the result is bit-identical to the naive loop.
func AxpyG[F Float](alpha F, x, y []F) {
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
func AxpySetG[F Float](alpha F, x, y []F) {
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

// Axpy2G accumulates y[j] += a1·x1[j] + a2·x2[j] in one pass with two
// load streams, left-associated per element.
func Axpy2G[F Float](a1 F, x1 []F, a2 F, x2 []F, y []F) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = ys[0] + a1*s1[0] + a2*s2[0]
		ys[1] = ys[1] + a1*s1[1] + a2*s2[1]
		ys[2] = ys[2] + a1*s1[2] + a2*s2[2]
		ys[3] = ys[3] + a1*s1[3] + a2*s2[3]
	}
	for ; i < n; i++ {
		y[i] = y[i] + a1*x1[i] + a2*x2[i]
	}
}

// Axpy2SetG writes y[j] = a1·x1[j] + a2·x2[j], the initialising form of
// Axpy2G.
func Axpy2SetG[F Float](a1 F, x1 []F, a2 F, x2 []F, y []F) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = a1*s1[0] + a2*s2[0]
		ys[1] = a1*s1[1] + a2*s2[1]
		ys[2] = a1*s1[2] + a2*s2[2]
		ys[3] = a1*s1[3] + a2*s2[3]
	}
	for ; i < n; i++ {
		y[i] = a1*x1[i] + a2*x2[i]
	}
}

// Axpy4G accumulates four scaled rows into y in one pass, left-associated
// per element.
func Axpy4G[F Float](a1 F, x1 []F, a2 F, x2 []F, a3 F, x3 []F, a4 F, x4 []F, y []F) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	x4 = x4[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		s3 := x3[i : i+4 : i+4]
		s4 := x4[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = ys[0] + a1*s1[0] + a2*s2[0] + a3*s3[0] + a4*s4[0]
		ys[1] = ys[1] + a1*s1[1] + a2*s2[1] + a3*s3[1] + a4*s4[1]
		ys[2] = ys[2] + a1*s1[2] + a2*s2[2] + a3*s3[2] + a4*s4[2]
		ys[3] = ys[3] + a1*s1[3] + a2*s2[3] + a3*s3[3] + a4*s4[3]
	}
	for ; i < n; i++ {
		y[i] = y[i] + a1*x1[i] + a2*x2[i] + a3*x3[i] + a4*x4[i]
	}
}

// Axpy4SetG writes four scaled rows into y in one initialising pass, the
// initialising form of Axpy4G.
func Axpy4SetG[F Float](a1 F, x1 []F, a2 F, x2 []F, a3 F, x3 []F, a4 F, x4 []F, y []F) {
	n := len(y)
	x1 = x1[:n]
	x2 = x2[:n]
	x3 = x3[:n]
	x4 = x4[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s1 := x1[i : i+4 : i+4]
		s2 := x2[i : i+4 : i+4]
		s3 := x3[i : i+4 : i+4]
		s4 := x4[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] = a1*s1[0] + a2*s2[0] + a3*s3[0] + a4*s4[0]
		ys[1] = a1*s1[1] + a2*s2[1] + a3*s3[1] + a4*s4[1]
		ys[2] = a1*s1[2] + a2*s2[2] + a3*s3[2] + a4*s4[2]
		ys[3] = a1*s1[3] + a2*s2[3] + a3*s3[3] + a4*s4[3]
	}
	for ; i < n; i++ {
		y[i] = a1*x1[i] + a2*x2[i] + a3*x3[i] + a4*x4[i]
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
