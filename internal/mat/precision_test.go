package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizeI8EdgeCases(t *testing.T) {
	if SymmetricScale(0) != 0 || SymmetricScale(-1) != 0 {
		t.Fatal("non-positive maxabs must yield scale 0")
	}
	s := SymmetricScale(12.7)
	if math.Abs(s-0.1) > 1e-15 {
		t.Fatalf("SymmetricScale(12.7) = %g, want 0.1", s)
	}
	// Round half away from zero, clamp to ±127; a non-positive scale or a
	// NaN quotient → code 0.
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		v, scale float64
		want     int8
	}{
		{0.05, 0.1, 1}, {-0.05, 0.1, -1}, {0.04, 0.1, 0},
		{1e9, 0.1, 127}, {-1e9, 0.1, -127}, {5, 0, 0},
		{nan, 0.1, 0}, {5, nan, 0}, {inf, inf, 0},
		{inf, 0.1, 127}, {-inf, 0.1, -127}, {5, inf, 0},
		{0, 0.1, 0}, {negZero, 0.1, 0},
		{0.125, 0.25, 1}, {-0.125, 0.25, -1}, {0.625, 0.25, 3}, {-0.625, 0.25, -3},
		{31.625, 0.25, 127}, {-31.625, 0.25, -127}, {0.49999999999999994, 1, 0},
		{31.875, 0.25, 127}, {-31.875, 0.25, -127},
		{5, -0.1, 0}, {-5, -0.1, 0}, {5, negZero, 0},
	}
	for _, c := range cases {
		if got := QuantizeI8(c.v, c.scale); got != c.want {
			t.Fatalf("QuantizeI8(%g, %g) = %d, want %d", c.v, c.scale, got, c.want)
		}
		// The matrix forms — one scale, per-column scales — and the
		// product kernels' quantisation of a multiplier are the same
		// quantiser, whichever implementation runs them.
		src := FromSlice(1, 1, []float64{c.v})
		one, cols := NewI8(1, 1), NewI8(1, 1)
		QuantizeI8Into(one, src, c.scale)
		QuantizeColumnsI8Into(cols, src, []float64{c.scale})
		mult := valueCodesI8(t, src.Data, c.scale)
		if one.Data[0] != c.want || cols.Data[0] != c.want || mult[0] != c.want {
			t.Fatalf("v=%g scale=%g: one-scale form %d, per-column form %d, multiplier %d, want %d",
				c.v, c.scale, one.Data[0], cols.Data[0], mult[0], c.want)
		}
	}
}

// TestQuantizeRoundTripBound: quantize→dequantize stays within half a
// step of the original for every in-range value.
func TestQuantizeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := RandNormal(rng, 17, 9, 0, 3)
	scale := SymmetricScale(src.MaxAbs())
	q := NewI8(17, 9)
	QuantizeI8Into(q, src, scale)
	for i := range src.Data {
		if err := math.Abs(float64(q.Data[i])*scale - src.Data[i]); err > scale/2+1e-12 {
			t.Fatalf("round-trip error %g at %d exceeds half-step %g", err, i, scale/2)
		}
	}
}

// TestQuantizeColumnsI8: per-column scales reconstruct each column within
// half its own step, and a zero column gets scale 0 and codes 0.
func TestQuantizeColumnsI8(t *testing.T) {
	w := New(5, 3)
	for r := 0; r < 5; r++ {
		w.Data[r*3] = float64(r) - 2 // column 0: [-2, 2]
		w.Data[r*3+1] = 0            // column 1: identically zero
		w.Data[r*3+2] = 100 * float64(r+1)
	}
	q, scales := QuantizeColumnsI8(w)
	if len(scales) != 3 {
		t.Fatalf("%d scales, want 3", len(scales))
	}
	if scales[1] != 0 {
		t.Fatalf("zero column scale %g, want 0", scales[1])
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			got := float64(q.Data[r*3+c]) * scales[c]
			want := w.Data[r*3+c]
			if math.Abs(got-want) > scales[c]/2+1e-12 {
				t.Fatalf("column %d row %d reconstructs to %g, want %g", c, r, got, want)
			}
		}
	}
}

func TestArgmaxRowsI8(t *testing.T) {
	labels := make([]int, 2)
	m8 := NewI8(2, 3)
	copy(m8.Data, []int8{-1, 7, 7, -5, -5, -6})
	m8.ArgmaxRowsScaledInto(labels, []float64{1, 1, 1})
	if labels[0] != 1 || labels[1] != 0 {
		t.Fatalf("int8 argmax %v, want [1 0]", labels)
	}
}
