package mat

import (
	"fmt"
	"math"
	"runtime"
)

// parallelThreshold is the number of multiply-accumulate operations below
// which MatMul stays single-threaded; spawning goroutines for tiny products
// costs more than the work itself.
const parallelThreshold = 1 << 16

// ResolveWorkers maps a per-call worker budget to an effective count for a
// kernel spanning rows rows: budget <= 0 means GOMAXPROCS, 1 means inline
// on the calling goroutine, and the result is clamped to [1, rows].
// Exported so sibling packages' kernels (graph's sparse products) resolve
// budgets by the same rule.
func ResolveWorkers(budget, rows int) int {
	w := budget
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MatMul returns a·b. It panics if the inner dimensions disagree.
//
// The kernel is cache-blocked over k and parallelised over row bands of a,
// which is the dominant pattern in GNN inference (tall-skinny activations
// times small weight matrices). This is the allocating wrapper over
// MatMulInto.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %s · %s", a.Shape(), b.Shape()))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b, 0)
	return out
}

// compactNonZeroGo is the portable form of the dense range's window
// compaction: it copies the non-zero entries of chunk (at most RowChunk
// of them) to the front of ab and their positions, offset by base, to
// ib, and returns how many there were. It has no data-dependent branch: every entry is stored, and the
// write cursor advances only past non-zeros. Kept out of line so the
// cursor stays in a register.
//
//go:noinline
func compactNonZeroGo(ab *[RowChunk]float64, ib *[RowChunk]int, chunk []float64, base int) int {
	m := 0
	for k, v := range chunk {
		ab[m&(RowChunk-1)], ib[m&(RowChunk-1)] = v, base+k
		// ±0 shifts to 0; anything else, NaN included, sets bit 63 of x
		// or of −x.
		x := math.Float64bits(v) << 1
		m += int((x | -x) >> 63)
	}
	return m
}

// MatMulTransA returns aᵀ·b without materialising the transpose of a.
// Shapes: a is n×m, b is n×p, result is m×p. This is the gradient kernel
// dW = Hᵀ·dY in dense and GCN layers. Allocating wrapper over
// MatMulTransAInto (GOMAXPROCS workers).
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransB returns a·bᵀ without materialising the transpose of b.
// Shapes: a is n×m, b is p×m, result is n×p. This is the gradient kernel
// dH = dY·Wᵀ in dense and GCN layers. Allocating wrapper over
// MatMulTransBInto (GOMAXPROCS workers).
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}
