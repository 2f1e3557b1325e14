package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

func buildGCN(rng *rand.Rand, adj *graph.NormAdjacency, dims ...int) *Model {
	var layers []Layer
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, NewGCNConv(rng, dims[i], dims[i+1], adj))
		if i+2 < len(dims) {
			layers = append(layers, NewReLU())
		}
	}
	return NewModel(layers...)
}

func TestModelForwardCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	adj := testAdj(12, 20)
	m := buildGCN(rng, adj, 6, 4, 3)
	x := mat.RandNormal(rng, 12, 6, 0, 1)
	out, acts := m.ForwardCollect(x, false)
	if len(acts) != 3 { // gcn, relu, gcn
		t.Fatalf("activations = %d, want 3", len(acts))
	}
	if !acts[len(acts)-1].Equal(out) {
		t.Fatal("last activation != output")
	}
	if acts[0].Cols != 4 || out.Cols != 3 {
		t.Fatal("activation widths wrong")
	}
}

func TestModelNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	adj := testAdj(5, 21)
	m := buildGCN(rng, adj, 10, 8, 4)
	want := (10*8 + 8) + (8*4 + 4)
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if m.ParamBytes() != int64(want)*8 {
		t.Fatalf("ParamBytes = %d", m.ParamBytes())
	}
}

func TestGradCheckGCN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 9
	adj := testAdj(n, 23)
	m := buildGCN(rng, adj, 5, 4, 3)
	x := mat.RandNormal(rng, n, 5, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	mask := []int{0, 2, 4, 6}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, mask)
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("GCN gradient check failed: worst relative error %v", worst)
	}
}

func TestGradCheckDenseMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := NewModel(NewDense(rng, 6, 5), NewReLU(), NewDense(rng, 5, 3))
	x := mat.RandNormal(rng, 7, 6, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0}
	mask := []int{0, 1, 2, 3}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, mask)
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("MLP gradient check failed: worst relative error %v", worst)
	}
}

func TestGradCheckDeepMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 8
	adj := testAdj(n, 25)
	m := NewModel(
		NewGCNConv(rng, 4, 6, adj),
		NewReLU(),
		NewGCNConv(rng, 6, 4, adj),
		NewReLU(),
		NewDense(rng, 4, 2),
	)
	x := mat.RandNormal(rng, n, 4, 0, 1)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	mask := []int{0, 1, 2, 3, 4}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, mask)
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("deep mixed gradient check failed: worst %v", worst)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 30
	g, labels := graph.PlantedPartition(graph.PlantedPartitionConfig{
		Nodes: n, Classes: 3, AvgDegree: 6, Homophily: 0.9, Seed: 26,
	})
	adj := graph.Normalize(g)
	x := mat.RandNormal(rng, n, 8, 0, 1)
	// Make features weakly informative of the class.
	for i := 0; i < n; i++ {
		x.Set(i, labels[i], x.At(i, labels[i])+1.0)
	}
	m := buildGCN(rng, adj, 8, 8, 3)
	mask := make([]int, n)
	for i := range mask {
		mask[i] = i
	}
	opt := NewAdam(0.02, 0)
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		out := m.Forward(x, true)
		loss, dOut := MaskedCrossEntropy(out, labels, mask)
		if epoch == 0 {
			first = loss
		}
		last = loss
		m.Backward(dOut)
		opt.Step(m.Params())
	}
	if last >= first/2 {
		t.Fatalf("Adam failed to optimise: first %v, last %v", first, last)
	}
}

func TestAdamZeroesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	l := NewDense(rng, 3, 2)
	m := NewModel(l)
	x := mat.RandNormal(rng, 4, 3, 0, 1)
	out := m.Forward(x, true)
	_, dOut := MaskedCrossEntropy(out, []int{0, 1, 0, 1}, []int{0, 1})
	m.Backward(dOut)
	NewAdam(0.01, 0).Step(m.Params())
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("gradient accumulator not zeroed after Step")
			}
		}
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	l := NewDense(rng, 2, 2)
	l.dwAcc.Data[0] = 5
	ZeroGrad(l.Params())
	if l.dwAcc.Data[0] != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	l := NewDense(rng, 4, 4)
	m := NewModel(l)
	norm := func() float64 {
		s := 0.0
		for _, v := range l.W.Data {
			s += v * v
		}
		return math.Sqrt(s)
	}
	before := norm()
	opt := NewAdam(0.01, 0.5)
	x := mat.New(2, 4) // zero input → zero data gradient, only decay acts
	for i := 0; i < 50; i++ {
		out := m.Forward(x, true)
		_, dOut := MaskedCrossEntropy(out, []int{0, 1}, []int{0})
		m.Backward(dOut)
		opt.Step(m.Params())
	}
	if after := norm(); after >= before {
		t.Fatalf("weight decay did not shrink weights: %v → %v", before, after)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	adj := testAdj(6, 30)
	m1 := buildGCN(rng, adj, 4, 3, 2)
	blob := m1.MarshalParams()

	m2 := buildGCN(rand.New(rand.NewSource(99)), adj, 4, 3, 2)
	if err := m2.UnmarshalParams(blob); err != nil {
		t.Fatalf("UnmarshalParams: %v", err)
	}
	x := mat.RandNormal(rng, 6, 4, 0, 1)
	if !m1.Forward(x, false).EqualApprox(m2.Forward(x, false), 1e-12) {
		t.Fatal("round-tripped model computes different outputs")
	}
}

func TestUnmarshalParamsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	adj := testAdj(4, 31)
	m := buildGCN(rng, adj, 3, 2)
	blob := m.MarshalParams()

	if err := m.UnmarshalParams(blob[:3]); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte{}, blob...)
	bad[0] ^= 0xFF
	if err := m.UnmarshalParams(bad); err == nil {
		t.Error("bad magic accepted")
	}
	other := buildGCN(rng, adj, 3, 3) // different shape
	if err := other.UnmarshalParams(blob); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := m.UnmarshalParams(append(blob, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPropParamsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		din := 1 + rng.Intn(6)
		dh := 1 + rng.Intn(6)
		dout := 1 + rng.Intn(4)
		adj := testAdj(5, seed)
		m1 := buildGCN(rng, adj, din, dh, dout)
		m2 := buildGCN(rand.New(rand.NewSource(seed+1)), adj, din, dh, dout)
		if err := m2.UnmarshalParams(m1.MarshalParams()); err != nil {
			return false
		}
		x := mat.RandNormal(rng, 5, din, 0, 1)
		return m1.Forward(x, false).EqualApprox(m2.Forward(x, false), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropSoftmaxInvariantToShift(t *testing.T) {
	// softmax(x + c·1) = softmax(x)
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 100 {
			shift = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		x := mat.RandNormal(rng, 3, 5, 0, 2)
		shifted := x.Clone()
		for i := range shifted.Data {
			shifted.Data[i] += shift
		}
		return Softmax(x).EqualApprox(Softmax(shifted), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
