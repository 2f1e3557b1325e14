package nn

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

func testAdj(n int, seed int64) *graph.NormAdjacency {
	return graph.Normalize(graph.Random(n, 2*n, seed))
}

func TestGCNConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj := testAdj(10, 1)
	l := NewGCNConv(rng, 6, 4, adj)
	x := mat.RandNormal(rng, 10, 6, 0, 1)
	out := l.Forward(x, false)
	if out.Rows != 10 || out.Cols != 4 {
		t.Fatalf("output shape = %s, want 10x4", out.Shape())
	}
}

func TestGCNConvInputDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewGCNConv(rng, 6, 4, testAdj(10, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim did not panic")
		}
	}()
	l.Forward(mat.New(10, 5), false)
}

func TestGCNConvNilAdjPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Fatal("nil adjacency did not panic")
		}
	}()
	NewGCNConv(rng, 3, 2, nil)
}

func TestGCNConvBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewGCNConv(rng, 3, 2, testAdj(5, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	l.Backward(mat.New(5, 2))
}

func TestGCNConvMatchesDenseFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Random(8, 14, 5)
	adj := graph.Normalize(g)
	l := NewGCNConv(rng, 5, 3, adj)
	for i := range l.B {
		l.B[i] = float64(i) * 0.1
	}
	x := mat.RandNormal(rng, 8, 5, 0, 1)
	want := mat.MatMul(adj.Dense(), mat.MatMul(x, l.W)).AddRowVector(l.B)
	if !l.Forward(x, false).EqualApprox(want, 1e-10) {
		t.Fatal("GCNConv disagrees with dense Â(XW)+b")
	}
}

func TestGCNConvNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewGCNConv(rng, 128, 32, testAdj(5, 9))
	if l.NumParams() != 128*32+32 {
		t.Fatalf("NumParams = %d", l.NumParams())
	}
}

func TestDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewDense(rng, 3, 2)
	l.W = mat.FromSlice(3, 2, []float64{1, 0, 0, 1, 1, 1})
	l.B = []float64{10, 20}
	x := mat.FromSlice(1, 3, []float64{1, 2, 3})
	got := l.Forward(x, false)
	want := mat.FromSlice(1, 2, []float64{14, 25})
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("Dense forward = %v", got.Data)
	}
}

func TestDenseInputDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewDense(rng, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim did not panic")
		}
	}()
	l.Forward(mat.New(1, 4), false)
}

func TestReLU(t *testing.T) {
	l := NewReLU()
	x := mat.FromSlice(1, 4, []float64{-1, 0, 2, -3})
	got := l.Forward(x, true)
	want := mat.FromSlice(1, 4, []float64{0, 0, 2, 0})
	if !got.Equal(want) {
		t.Fatalf("ReLU forward = %v", got.Data)
	}
	dx := l.Backward(mat.FromSlice(1, 4, []float64{5, 5, 5, 5}))
	wantDx := mat.FromSlice(1, 4, []float64{0, 0, 5, 0})
	if !dx.Equal(wantDx) {
		t.Fatalf("ReLU backward = %v", dx.Data)
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewDropout(rng, 0.5)
	x := mat.RandNormal(rng, 4, 4, 0, 1)
	if l.Forward(x, false) != x {
		t.Fatal("inference-mode dropout should pass input through")
	}
}

func TestDropoutTrainDropsAndRescales(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewDropout(rng, 0.5)
	x := mat.New(100, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := l.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-2) < 1e-12:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 4000 || zeros > 6000 {
		t.Fatalf("dropped %d of 10000, want ≈ 5000", zeros)
	}
	if zeros+twos != 10000 {
		t.Fatal("dropout outputs not partitioned into {0, 2}")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewDropout(rng, 0.3)
	x := mat.RandNormal(rng, 10, 10, 0, 1)
	out := l.Forward(x, true)
	ones := mat.New(10, 10)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	dx := l.Backward(ones)
	for i := range out.Data {
		if (out.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask disagrees with forward mask")
		}
	}
}

func TestDropoutInvalidProbPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	defer func() {
		if recover() == nil {
			t.Fatal("p=1 did not panic")
		}
	}()
	NewDropout(rng, 1.0)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := mat.RandNormal(rng, 20, 7, 0, 10)
	p := Softmax(logits)
	for i := 0; i < p.Rows; i++ {
		sum := 0.0
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := mat.FromSlice(1, 3, []float64{1000, 1000, 1000})
	p := Softmax(logits)
	for _, v := range p.Data {
		if math.IsNaN(v) || math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("unstable softmax: %v", p.Data)
		}
	}
}

func TestMaskedCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln(C).
	logits := mat.New(4, 5)
	loss, grad := MaskedCrossEntropy(logits, []int{0, 1, 2, 3}, []int{0, 1})
	if math.Abs(loss-math.Log(5)) > 1e-9 {
		t.Fatalf("loss = %v, want ln 5", loss)
	}
	// Unmasked rows must have zero gradient.
	for j := 0; j < 5; j++ {
		if grad.At(2, j) != 0 || grad.At(3, j) != 0 {
			t.Fatal("gradient leaked to unmasked rows")
		}
	}
}

func TestMaskedCrossEntropyGradientSigns(t *testing.T) {
	logits := mat.FromSlice(1, 2, []float64{0, 0})
	_, grad := MaskedCrossEntropy(logits, []int{0}, []int{0})
	if grad.At(0, 0) >= 0 || grad.At(0, 1) <= 0 {
		t.Fatalf("gradient signs wrong: %v", grad.Data)
	}
}

func TestMaskedCrossEntropyPanics(t *testing.T) {
	logits := mat.New(2, 3)
	cases := map[string]func(){
		"bad labels len": func() { MaskedCrossEntropy(logits, []int{0}, []int{0}) },
		"empty mask":     func() { MaskedCrossEntropy(logits, []int{0, 1}, nil) },
		"mask range":     func() { MaskedCrossEntropy(logits, []int{0, 1}, []int{5}) },
		"label range":    func() { MaskedCrossEntropy(logits, []int{0, 9}, []int{1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAccuracy(t *testing.T) {
	logits := mat.FromSlice(3, 2, []float64{0.9, 0.1, 0.2, 0.8, 0.6, 0.4})
	labels := []int{0, 1, 1}
	if got := Accuracy(logits, labels, []int{0, 1, 2}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
	if Accuracy(logits, labels, nil) != 0 {
		t.Fatal("empty mask should give 0")
	}
}
