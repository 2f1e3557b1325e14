package mat

import (
	"math"
	"math/rand"
	"testing"
)

func fill(rng *rand.Rand, m *Matrix) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestMatMulBiasReLUIntoMatchesUnfused pins the fused kernel to the exact
// bits of the unfused op sequence (product, bias add, residual add, ReLU)
// across every epilogue combination and worker budget — the property the
// exec fusion pass stakes its correctness on.
func TestMatMulBiasReLUIntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, k, p = 37, 9, 5
	a := fill(rng, New(n, k))
	// Sprinkle zeros so the skip paths run.
	for i := 0; i < n*k/3; i++ {
		a.Data[rng.Intn(n*k)] = 0
	}
	b := fill(rng, New(k, p))
	bias := fill(rng, New(1, p)).Data
	res := fill(rng, New(n, p))

	for _, withBias := range []bool{false, true} {
		for _, withRes := range []bool{false, true} {
			for _, relu := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					want := New(n, p)
					MatMulSerialInto(want, a, b)
					bv := []float64(nil)
					if withBias {
						bv = bias
						AddBiasInto(want, want, bias)
					}
					var rv *Matrix
					if withRes {
						rv = res
						AddInto(want, want, res)
					}
					if relu {
						ReLUInto(want, want)
					}
					got := New(n, p)
					MatMulBiasReLUInto(got, a, b, bv, rv, relu, workers)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("bias=%v res=%v relu=%v workers=%d: elem %d = %v, want %v",
								withBias, withRes, relu, workers, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestAxpyFamilyBitIdentity checks that the row accumulate — in one
// dispatched call, and the portable kernel continued across two — and Dot
// reproduce the one-at-a-time accumulation bit for bit.
func TestAxpyFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 3, 7, 8, 16, 33} {
		src := fill(rng, New(4, d)).Data
		as := fill(rng, New(1, 4)).Data
		idx := []int{0, 1, 2, 3}
		ref := make([]float64, d)
		for i, a := range as {
			for j := 0; j < d; j++ {
				ref[j] += a * src[i*d+j]
			}
		}
		got := make([]float64, d)
		rowAccF64(got, as, idx, 4, src, nil)
		split := make([]float64, d)
		rowAccF64Go(split, as[:2], idx[:2], src, false)
		rowAccF64Go(split, as[2:], idx[2:], src, true)
		for j := range ref {
			if got[j] != ref[j] || split[j] != ref[j] {
				t.Fatalf("d=%d elem %d: one call %v, continued %v, want %v", d, j, got[j], split[j], ref[j])
			}
		}
		gotD := Dot(src[:d], src[d:2*d])
		refD := 0.0
		for j := 0; j < d; j++ {
			refD += src[j] * src[d+j]
		}
		if gotD != refD {
			t.Fatalf("d=%d Dot = %v, want %v", d, gotD, refD)
		}
	}
}

// TestApplyEpilogueRowReLUSemantics pins the ReLU step to ReLUInto's
// exact semantics: NaN and negative zero both become +0.
func TestApplyEpilogueRowReLUSemantics(t *testing.T) {
	row := []float64{math.NaN(), math.Copysign(0, -1), -1, 2}
	ApplyEpilogueRow(row, nil, nil, true)
	want := []float64{0, 0, 0, 2}
	for i, v := range row {
		if math.Signbit(v) || v != want[i] {
			t.Fatalf("elem %d = %v, want +%v", i, v, want[i])
		}
	}
}

// TestMatMulTransWorkersVariants checks the per-call-budget training
// kernels agree with their global-default forms.
func TestMatMulTransWorkersVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := fill(rng, New(19, 6))
	b := fill(rng, New(19, 4))
	wantA := MatMulTransA(a, b)
	for _, w := range []int{1, 2, 4} {
		got := New(wantA.Rows, wantA.Cols)
		if MatMulTransAWorkersInto(got, a, b, w); !got.Equal(wantA) {
			t.Fatalf("MatMulTransAWorkersInto(%d) differs from MatMulTransA", w)
		}
	}
	c := fill(rng, New(5, 6))
	wantB := MatMulTransB(a, c)
	for _, w := range []int{1, 2, 4} {
		got := New(wantB.Rows, wantB.Cols)
		if MatMulTransBWorkersInto(got, a, c, w); !got.Equal(wantB) {
			t.Fatalf("MatMulTransBWorkersInto(%d) differs from MatMulTransB", w)
		}
	}
}

// TestReLUBranchFree holds the bit-mask ReLU to the comparison it
// replaced, bit for bit, over every special value and a random sweep.
func TestReLUBranchFree(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1,
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		want := 0.0
		if v > 0 {
			want = v
		}
		if got := reluF64(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reluF64(%x) = %x, want %x", math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
		}
	}
}
