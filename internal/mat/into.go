package mat

import (
	"fmt"
	"sync"
)

// In-place kernel variants. Every allocating kernel in this package is a
// thin wrapper over one of these Into forms, which write their result into
// a caller-owned destination and never touch the heap. They exist for the
// steady-state inference path: a deployed vault sizes all of its buffers
// once at plan time and then serves requests without producing garbage,
// which is also how a real enclave manages its pre-allocated EPC.
//
// Destinations must not alias any input unless a kernel documents
// otherwise; kernels panic on detectable aliasing.

// requireShape panics unless m is rows×cols.
func (m *Matrix) requireShape(rows, cols int, op string) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("mat: %s destination %s, want %dx%d", op, m.Shape(), rows, cols))
	}
}

// RequireNoAlias panics when dst shares backing storage with src. It only
// detects full aliasing (same underlying array), which covers every use in
// this codebase. op is the full panic label (e.g. "mat: MatMulInto");
// exported so sibling packages' Into kernels share one aliasing rule.
func RequireNoAlias(dst, src *Matrix, op string) {
	if dst == src || (len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0]) {
		panic(fmt.Sprintf("%s destination aliases an input", op))
	}
}

// Zero clears every element of m.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMulInto computes dst = a·b using the parallel blocked kernel. dst must
// be a.Rows×b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	matMulInto(dst, a, b, 0)
}

// matMulInto is the plain product: exactly MatMulBiasReLUInto with no
// epilogue — one banded driver, not two copies to keep in sync.
func matMulInto(dst, a, b *Matrix, budget int) {
	MatMulBiasReLUInto(dst, a, b, nil, nil, false, budget)
}

// MatMulTransAInto computes dst = aᵀ·b without materialising the transpose.
// Shapes: a is n×m, b is n×p, dst must be m×p and must not alias a or b.
// Runs under GOMAXPROCS workers; see MatMulTransAWorkersInto for the
// per-call-budget form.
func MatMulTransAInto(dst, a, b *Matrix) {
	MatMulTransAWorkersInto(dst, a, b, 0)
}

// MatMulTransAWorkersInto is MatMulTransAInto under an explicit per-call
// worker budget (MatMulBiasReLUInto semantics: <= 0 resolves to
// GOMAXPROCS, 1 runs inline) — the form plan- and train-scoped callers
// use.
func MatMulTransAWorkersInto(dst, a, b *Matrix, budget int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTransAInto outer dimension mismatch %s ᵀ· %s", a.Shape(), b.Shape()))
	}
	m, p := a.Cols, b.Cols
	dst.requireShape(m, p, "MatMulTransAInto")
	RequireNoAlias(dst, a, "mat: MatMulTransAInto")
	RequireNoAlias(dst, b, "mat: MatMulTransAInto")
	dst.Zero()
	ops := a.Rows * m * p
	workers := ResolveWorkers(budget, m)
	if ops < parallelThreshold || workers == 1 {
		matMulTransARange(a, b, dst, 0, m)
		return
	}
	// Parallelise over output rows (columns of a) with per-worker column
	// ranges, avoiding any write contention.
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		kLo := w * chunk
		kHi := min(kLo+chunk, m)
		if kLo >= kHi {
			break
		}
		wg.Add(1)
		go func(kLo, kHi int) {
			defer wg.Done()
			matMulTransARange(a, b, dst, kLo, kHi)
		}(kLo, kHi)
	}
	wg.Wait()
}

// matMulTransARange accumulates columns [kLo,kHi) of a into out = aᵀ·b.
func matMulTransARange(a, b, out *Matrix, kLo, kHi int) {
	p := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k := kLo; k < kHi; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			AxpyG(av, brow, out.Data[k*p:(k+1)*p])
		}
	}
}

// MatMulTransBInto computes dst = a·bᵀ without materialising the transpose.
// Shapes: a is n×m, b is p×m, dst must be n×p and must not alias a or b.
// Runs under GOMAXPROCS workers; see MatMulTransBWorkersInto for the
// per-call-budget form.
func MatMulTransBInto(dst, a, b *Matrix) {
	MatMulTransBWorkersInto(dst, a, b, 0)
}

// MatMulTransBWorkersInto is MatMulTransBInto under an explicit per-call
// worker budget (MatMulBiasReLUInto semantics: <= 0 resolves to
// GOMAXPROCS, 1 runs inline).
func MatMulTransBWorkersInto(dst, a, b *Matrix, budget int) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulTransBInto inner dimension mismatch %s · %s ᵀ", a.Shape(), b.Shape()))
	}
	n, p := a.Rows, b.Rows
	dst.requireShape(n, p, "MatMulTransBInto")
	RequireNoAlias(dst, a, "mat: MatMulTransBInto")
	RequireNoAlias(dst, b, "mat: MatMulTransBInto")
	ops := n * a.Cols * p
	workers := ResolveWorkers(budget, n)
	if ops < parallelThreshold || workers == 1 {
		matMulTransBRange(a, b, dst, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulTransBRange(a, b, dst, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulTransBRange computes rows [lo,hi) of out = a·bᵀ. Each output cell
// is written exactly once, so no prior zeroing is needed.
func matMulTransBRange(a, b, out *Matrix, lo, hi int) {
	m, p := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*m : (i+1)*m]
		orow := out.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			orow[j] = Dot(arow, b.Data[j*m:(j+1)*m])
		}
	}
}

// AddBiasInto writes x + bias (bias broadcast across rows) into dst. dst
// may alias x; len(bias) must equal x.Cols.
func AddBiasInto(dst, x *Matrix, bias []float64) {
	if len(bias) != x.Cols {
		panic(fmt.Sprintf("mat: AddBiasInto bias length %d != cols %d", len(bias), x.Cols))
	}
	dst.requireShape(x.Rows, x.Cols, "AddBiasInto")
	for i := 0; i < x.Rows; i++ {
		xrow := x.Data[i*x.Cols : (i+1)*x.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, v := range xrow {
			drow[j] = v + bias[j]
		}
	}
}

// ReLUInto writes max(x, 0) element-wise into dst. dst may alias x.
func ReLUInto(dst, x *Matrix) {
	dst.requireShape(x.Rows, x.Cols, "ReLUInto")
	for i, v := range x.Data {
		dst.Data[i] = reluF64(v)
	}
}

// AddInto writes a + b element-wise into dst. dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	a.requireSameShape(b, "AddInto")
	dst.requireShape(a.Rows, a.Cols, "AddInto")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// HConcatInto writes [m0 | m1 | …] into dst, which must be pre-sized to the
// concatenated shape and must not alias any input.
func HConcatInto(dst *Matrix, ms ...*Matrix) {
	rows, cols := 0, 0
	if len(ms) > 0 {
		rows = ms[0].Rows
	}
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("mat: HConcatInto row mismatch: %d != %d", m.Rows, rows))
		}
		RequireNoAlias(dst, m, "mat: HConcatInto")
		cols += m.Cols
	}
	dst.requireShape(rows, cols, "HConcatInto")
	for i := 0; i < rows; i++ {
		out := dst.Data[i*cols : (i+1)*cols]
		off := 0
		for _, m := range ms {
			copy(out[off:off+m.Cols], m.Data[i*m.Cols:(i+1)*m.Cols])
			off += m.Cols
		}
	}
}

// ArgmaxRowsInto writes, for each row, the column index of its maximum
// value into dst, which must have length m.Rows.
func (m *Matrix) ArgmaxRowsInto(dst []int) {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: ArgmaxRowsInto destination length %d != rows %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		if m.Cols == 0 {
			dst[i] = 0
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		bestJ := 0
		best := row[0]
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		dst[i] = bestJ
	}
}

// CopyInto copies src into dst; shapes must match.
func CopyInto(dst, src *Matrix) {
	dst.requireShape(src.Rows, src.Cols, "CopyInto")
	copy(dst.Data, src.Data)
}
