package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation the optimised kernels are
// checked against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 17, 17, 0, 1)
	if !MatMul(a, Identity(17)).EqualApprox(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !MatMul(Identity(17), a).EqualApprox(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad shapes did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Large enough to take the parallel path.
	a := RandNormal(rng, 130, 70, 0, 1)
	b := RandNormal(rng, 70, 90, 0, 1)
	if !MatMul(a, b).EqualApprox(naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel MatMul disagrees with naive")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandNormal(rng, 40, 30, 0, 1)
	b := RandNormal(rng, 40, 20, 0, 1)
	want := naiveMatMul(a.T(), b)
	if !MatMulTransA(a, b).EqualApprox(want, 1e-9) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
}

func TestMatMulTransALargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandNormal(rng, 200, 60, 0, 1)
	b := RandNormal(rng, 200, 50, 0, 1)
	want := naiveMatMul(a.T(), b)
	if !MatMulTransA(a, b).EqualApprox(want, 1e-9) {
		t.Fatal("parallel MatMulTransA disagrees")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandNormal(rng, 40, 30, 0, 1)
	b := RandNormal(rng, 25, 30, 0, 1)
	want := naiveMatMul(a, b.T())
	if !MatMulTransB(a, b).EqualApprox(want, 1e-9) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatMulTransBLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandNormal(rng, 180, 64, 0, 1)
	b := RandNormal(rng, 90, 64, 0, 1)
	want := naiveMatMul(a, b.T())
	if !MatMulTransB(a, b).EqualApprox(want, 1e-9) {
		t.Fatal("parallel MatMulTransB disagrees")
	}
}

func TestMatMulTransMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"TransA": func() { MatMulTransA(New(3, 2), New(4, 2)) },
		"TransB": func() { MatMulTransB(New(3, 2), New(4, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with bad shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// randMatrixPair produces shape-compatible random matrices from quick's
// random source.
func randMatrixPair(r *rand.Rand) (a, b *Matrix) {
	n := 1 + r.Intn(12)
	m := 1 + r.Intn(12)
	p := 1 + r.Intn(12)
	return RandNormal(r, n, m, 0, 1), RandNormal(r, m, p, 0, 1)
}

func TestPropMatMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randMatrixPair(r)
		return MatMul(a, b).EqualApprox(naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := RandNormal(r, 1+r.Intn(20), 1+r.Intn(20), 0, 1)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randMatrixPair(r)
		c := RandNormal(r, b.Rows, b.Cols, 0, 1)
		left := MatMul(a, b.Add(c))
		right := MatMul(a, b).Add(MatMul(a, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropTransposeOfProduct(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randMatrixPair(r)
		return MatMul(a, b).T().EqualApprox(MatMul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := Glorot(rng, 64, 32)
	if w.Rows != 64 || w.Cols != 32 {
		t.Fatalf("Glorot shape = %s", w.Shape())
	}
	bound := 0.2501 // sqrt(6/96) = 0.25
	if w.MaxAbs() > bound {
		t.Fatalf("Glorot value out of bound: %v > %v", w.MaxAbs(), bound)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := RandUniform(rng, 10, 10, -2, 3)
	for _, v := range m.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v outside [-2, 3)", v)
		}
	}
}

func TestRandNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := RandNormal(rng, 100, 100, 1.0, 2.0)
	mean := m.Sum() / float64(len(m.Data))
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("sample mean = %v, want ≈ 1.0", mean)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := RandNormal(rng, 256, 256, 0, 1)
	y := RandNormal(rng, 256, 256, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func TestPropMatMulAssociativity(t *testing.T) {
	// (AB)C = A(BC) within fp tolerance.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p, q := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := RandNormal(r, n, m, 0, 1)
		b := RandNormal(r, m, p, 0, 1)
		c := RandNormal(r, p, q, 0, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.EqualApprox(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropScaleCommutesWithMatMul(t *testing.T) {
	// (sA)B = s(AB)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := r.NormFloat64()
		a, b := randMatrixPair(r)
		return MatMul(a.Scale(s), b).EqualApprox(MatMul(a, b).Scale(s), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropHConcatSliceColsInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		c1, c2 := 1+r.Intn(6), 1+r.Intn(6)
		a := RandNormal(r, n, c1, 0, 1)
		b := RandNormal(r, n, c2, 0, 1)
		cat := HConcat(a, b)
		return cat.SliceCols(0, c1).Equal(a) && cat.SliceCols(c1, c1+c2).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
