package mat

import "fmt"

// Every forward product in this codebase — the dense product here, the
// sparse product in internal/graph, at fp64 and at int8 — computes each
// output row under one contract, the row accumulate:
//
//	out[0:p] = Σₜ alpha[t] · src[idx[t]·p : idx[t]·p+p]
//
// accumulated per element in t order with a separate multiply and add
// (never a fused multiply-add); the first term is written as a bare
// product (so a −0 product stays −0), and no term at all clears the row.
// SpMM hands it a CSR row's values and column indices directly; the dense
// product first compacts the non-zero multiplicands of an input row into
// a stack buffer, branch-free, and then runs the same indexed kernel, so
// no data-dependent branch is left in the MAC loop.
//
// The fp64 form has one more clause, the look-ahead: the caller may pass
// the indices it will ask for next — SpMM passes a CSR row a fixed
// distance on — and an implementation may use them to start fetching
// those source rows while it sums this one. They are hints and nothing
// else: never validated, the rows they name never read, any length (none,
// fewer or more than the row's own terms) and any value (out of range
// included) allowed, and no bit of out depends on them. The assembly
// issues prefetches for them where that pays (rowacc_amd64.go has the
// rule and its measurements); the portable kernel ignores them. The int8
// form takes none: its sources are an eighth the size and L2-resident
// at the graph sizes served here.
//
// The contract has exactly two implementations: AVX2 assembly on amd64
// (rowacc_amd64.s, chosen once at init from CPUID) and the portable Go
// below, which is the fallback everywhere else, the only implementation
// under the purego build tag, and the oracle the differential tests hold
// the assembly to. Both perform the same IEEE operations on the same
// operands in the same order for every output element, so they agree to
// the last bit, and — each output row coming from one kernel call chain
// in one order regardless of how rows are grouped — tiled == direct,
// sharded == single and fused == unfused hold by row independence. The
// int8 form accumulates exactly in int32 and is order-free.

// RowChunk is how many multipliers the products hand the kernel per
// call from their stack buffers — the dense products' compacted
// multiplicands here, the int8 SpMM's quantized edge values in
// internal/graph; longer rows continue onto the output row chunk by
// chunk.
const RowChunk = 128

// RowAccumulate computes the fp64 row accumulate into out (p = len(out)):
// src is a row-major matrix of p-wide rows, idx[t] names the row scaled
// by alpha[t]. With cont set the sum continues onto out's current
// contents instead of starting from the bare first product — how callers
// feed one long row through in chunks. ahead is the look-ahead operand
// (nil for none). Operand lengths and every index in idx are validated
// here, before either implementation runs, so a corrupt index panics
// instead of reading out of bounds; ahead is deliberately not.
func RowAccumulate(out, alpha []float64, idx []int, src []float64, cont bool, ahead []int) {
	requireRowAcc(len(out), len(alpha), idx, len(src))
	switch {
	case len(alpha) > 0 && len(out) > 0:
		rowAccF64(out, alpha, idx, src, cont, ahead)
	case !cont:
		clear(out)
	}
}

// RowAccumulateI8 is RowAccumulate over int8 rows with int32 multipliers
// and an exact int32 accumulator.
func RowAccumulateI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	requireRowAcc(len(out), len(alpha), idx, len(src))
	switch {
	case len(alpha) > 0 && len(out) > 0:
		rowAccI8(out, alpha, idx, src, cont)
	case !cont:
		clear(out)
	}
}

// requireRowAcc validates one row-accumulate call: one index per
// multiplier, every index a whole p-wide row inside src.
func requireRowAcc(p, terms int, idx []int, srcLen int) {
	if len(idx) != terms {
		panic(fmt.Sprintf("mat: row accumulate with %d multipliers but %d indices", terms, len(idx)))
	}
	if p == 0 {
		return
	}
	rows := uint(srcLen / p)
	for _, c := range idx {
		if uint(c) >= rows {
			panic(fmt.Sprintf("mat: row accumulate index %d out of range [0,%d)", c, rows))
		}
	}
}

// rowAccF64Go is the portable fp64 row accumulate. Like the assembly it
// stands in for, it takes operands the caller has validated and at least
// one term.
func rowAccF64Go(out, alpha []float64, idx []int, src []float64, cont bool) {
	p := len(out)
	for t, a := range alpha {
		row := src[idx[t]*p : idx[t]*p+p]
		if t == 0 && !cont {
			AxpySetG(a, row, out)
		} else {
			AxpyG(a, row, out)
		}
	}
}

// rowAccI8Go is the portable int8 row accumulate.
func rowAccI8Go(out, alpha []int32, idx []int, src []int8, cont bool) {
	p := len(out)
	for t, a := range alpha {
		row := src[idx[t]*p : idx[t]*p+p]
		if t == 0 && !cont {
			AxpyI8Set(a, row, out)
		} else {
			AxpyI8(a, row, out)
		}
	}
}

// Dot returns Σ x[j]·y[j] over j < len(x), accumulating in index order
// with a single accumulator (bit-identical to the naive loop; the unroll
// only removes bounds checks and branch overhead). len(y) must be at
// least len(x).
func Dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		s += xs[0] * ys[0]
		s += xs[1] * ys[1]
		s += xs[2] * ys[2]
		s += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}
