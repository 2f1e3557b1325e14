package mat

import (
	"fmt"
	"sync"
)

// float32 kernel family. These mirror the fp64 kernels (matmul.go,
// fused.go, into.go) over Matrix32: same banded parallel driver, same
// canonical bias → residual → ReLU epilogue order, and one fixed per-row
// element order — so tiled, direct and banded-parallel executions are
// bit-identical *within* fp32 by the same row-independence argument that
// pins the fp64 engine. The row kernel is portable Go on every platform:
// a zero-skip loop over the generic multi-stream axpy forms (axpyg.go),
// not the fp64/int8 row-accumulate assembly.

// ApplyEpilogueRow32 applies the fused epilogue to one float32 output
// row: bias (broadcast), then residual row, then ReLU (non-positive and
// NaN entries become +0). Unchecked, like ApplyEpilogueRow — kernels
// validate shapes once up front.
func ApplyEpilogueRow32(drow, bias, rrow []float32, relu bool) {
	switch {
	case bias != nil && rrow == nil && relu:
		for j, bv := range bias {
			if v := drow[j] + bv; v > 0 {
				drow[j] = v
			} else {
				drow[j] = 0
			}
		}
		return
	case bias != nil:
		for j, bv := range bias {
			drow[j] += bv
		}
	}
	if rrow != nil {
		for j, rv := range rrow {
			drow[j] += rv
		}
	}
	if relu {
		for j, v := range drow {
			if v > 0 {
				continue
			}
			drow[j] = 0
		}
	}
}

// RequireNoAlias32 panics when dst shares backing storage with src —
// the Matrix32 form of RequireNoAlias (full aliasing only).
func RequireNoAlias32(dst, src *Matrix32, op string) {
	if dst == src || (len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0]) {
		panic(fmt.Sprintf("%s destination aliases an input", op))
	}
}

func (m *Matrix32) requireShape(rows, cols int, op string) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("mat: %s destination %s, want %dx%d", op, m.Shape(), rows, cols))
	}
}

// MatMul32BiasReLUInto computes dst = epilogue(a·b) over float32: the
// fp32 counterpart of MatMulBiasReLUInto, banded over rows with the
// epilogue applied while each output row is cache-hot. Any of bias, res
// may be nil and relu false — with all three unset this is the plain
// product. dst must be a.Rows×b.Cols and must not alias a, b or res.
// workers follows MatMulWorkersInto semantics (<= 0 resolves to
// GOMAXPROCS, 1 runs inline, clamped to the row count).
func MatMul32BiasReLUInto(dst, a, b *Matrix32, bias []float32, res *Matrix32, relu bool, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul32BiasReLUInto inner dimension mismatch %s · %s", a.Shape(), b.Shape()))
	}
	dst.requireShape(a.Rows, b.Cols, "MatMul32BiasReLUInto")
	RequireNoAlias32(dst, a, "mat: MatMul32BiasReLUInto")
	RequireNoAlias32(dst, b, "mat: MatMul32BiasReLUInto")
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("mat: MatMul32BiasReLUInto bias length %d != cols %d", len(bias), dst.Cols))
	}
	if res != nil {
		RequireNoAlias32(dst, res, "mat: MatMul32BiasReLUInto")
		res.requireShape(dst.Rows, dst.Cols, "MatMul32BiasReLUInto residual")
	}
	ops := a.Rows * a.Cols * b.Cols
	w := ResolveWorkers(workers, a.Rows)
	if ops < parallelThreshold || w == 1 {
		matMul32EpilogueRange(a, b, dst, 0, a.Rows, bias, res, relu)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := min(lo+chunk, a.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMul32EpilogueRange(a, b, dst, lo, hi, bias, res, relu)
		}(lo, hi)
	}
	wg.Wait()
}

// matMul32EpilogueRange computes rows [lo,hi) of the product and applies
// the epilogue per row. Rows are independent, so banding does not change
// element order or bits.
func matMul32EpilogueRange(a, b, dst *Matrix32, lo, hi int, bias []float32, res *Matrix32, relu bool) {
	n, p := a.Cols, b.Cols
	epi := bias != nil || res != nil || relu
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*p : (i+1)*p]
		matMulRow32(a.Data[i*n:(i+1)*n], b, orow, n, p)
		if epi {
			var rrow []float32
			if res != nil {
				rrow = res.Data[i*p : (i+1)*p]
			}
			ApplyEpilogueRow32(orow, bias, rrow, relu)
		}
	}
}

// matMulRow32 computes one float32 output row with a zero-skip quad
// path: fully non-zero quads of k take the four-stream kernel after one
// combined test, mixed quads fall back to per-element
// skip, the first write uses a Set kernel, all-zero rows are cleared.
func matMulRow32(arow []float32, b *Matrix32, orow []float32, n, p int) {
	k, inited := 0, false
	for ; k+4 <= n; k += 4 {
		a1, a2, a3, a4 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a1 != 0 && a2 != 0 && a3 != 0 && a4 != 0 {
			if inited {
				Axpy4G(a1, b.Data[k*p:(k+1)*p], a2, b.Data[(k+1)*p:(k+2)*p],
					a3, b.Data[(k+2)*p:(k+3)*p], a4, b.Data[(k+3)*p:(k+4)*p], orow)
			} else {
				Axpy4SetG(a1, b.Data[k*p:(k+1)*p], a2, b.Data[(k+1)*p:(k+2)*p],
					a3, b.Data[(k+2)*p:(k+3)*p], a4, b.Data[(k+3)*p:(k+4)*p], orow)
				inited = true
			}
			continue
		}
		for j := k; j < k+4; j++ {
			if av := arow[j]; av != 0 {
				if inited {
					AxpyG(av, b.Data[j*p:(j+1)*p], orow)
				} else {
					AxpySetG(av, b.Data[j*p:(j+1)*p], orow)
					inited = true
				}
			}
		}
	}
	for ; k < n; k++ {
		if av := arow[k]; av != 0 {
			if inited {
				AxpyG(av, b.Data[k*p:(k+1)*p], orow)
			} else {
				AxpySetG(av, b.Data[k*p:(k+1)*p], orow)
				inited = true
			}
		}
	}
	if !inited {
		clear(orow)
	}
}

// AddBias32Into writes x + bias (broadcast across rows) into dst. dst
// may alias x; len(bias) must equal x.Cols.
func AddBias32Into(dst, x *Matrix32, bias []float32) {
	if len(bias) != x.Cols {
		panic(fmt.Sprintf("mat: AddBias32Into bias length %d != cols %d", len(bias), x.Cols))
	}
	dst.requireShape(x.Rows, x.Cols, "AddBias32Into")
	for i := 0; i < x.Rows; i++ {
		xrow := x.Data[i*x.Cols : (i+1)*x.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, v := range xrow {
			drow[j] = v + bias[j]
		}
	}
}

// ReLU32Into writes max(x, 0) element-wise into dst. dst may alias x.
func ReLU32Into(dst, x *Matrix32) {
	dst.requireShape(x.Rows, x.Cols, "ReLU32Into")
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// Add32Into writes a + b element-wise into dst. dst may alias a or b.
func Add32Into(dst, a, b *Matrix32) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Add32Into shape mismatch %s vs %s", a.Shape(), b.Shape()))
	}
	dst.requireShape(a.Rows, a.Cols, "Add32Into")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// HConcat32Into writes [m0 | m1 | …] into dst, which must be pre-sized
// to the concatenated shape and must not alias any input.
func HConcat32Into(dst *Matrix32, ms ...*Matrix32) {
	rows, cols := 0, 0
	if len(ms) > 0 {
		rows = ms[0].Rows
	}
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("mat: HConcat32Into row mismatch: %d != %d", m.Rows, rows))
		}
		RequireNoAlias32(dst, m, "mat: HConcat32Into")
		cols += m.Cols
	}
	dst.requireShape(rows, cols, "HConcat32Into")
	for i := 0; i < rows; i++ {
		out := dst.Data[i*cols : (i+1)*cols]
		off := 0
		for _, m := range ms {
			copy(out[off:off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
			off += m.Cols
		}
	}
}
