package nn

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// The structural tests for graph.MeanAdjacency / graph.SelfLoopAdjacency /
// graph.Transpose moved to internal/graph/aggregate_test.go, next to the
// code they exercise.

// sageOver builds a SAGE layer over g's mean operator and its transpose.
func sageOver(rng *rand.Rand, inDim, outDim int, g *graph.Graph) *SAGEConv {
	agg := graph.MeanAdjacency(g)
	return NewSAGEConv(rng, inDim, outDim, agg, agg.Transpose())
}

func TestSAGEConvShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Random(12, 24, 3)
	l := sageOver(rng, 6, 4, g)
	out := l.Forward(mat.RandNormal(rng, 12, 6, 0, 1), false)
	if out.Rows != 12 || out.Cols != 4 {
		t.Fatalf("shape = %s", out.Shape())
	}
	if l.NumParams() != 2*6*4+4 {
		t.Fatalf("NumParams = %d", l.NumParams())
	}
}

func TestSAGEConvIsolatedNodeUsesSelfOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}}) // node 2 isolated
	l := sageOver(rng, 2, 2, g)
	x := mat.FromSlice(3, 2, []float64{1, 0, 0, 1, 2, 2})
	out := l.Forward(x, false)
	want := mat.MatMul(x.SliceRows(2, 3), l.WSelf).AddRowVector(l.B)
	for k := 0; k < 2; k++ {
		if math.Abs(out.At(2, k)-want.At(0, k)) > 1e-12 {
			t.Fatalf("isolated node output %v, want self-term only %v", out.Row(2), want.Row(0))
		}
	}
}

func TestGradCheckSAGE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Random(9, 18, 5)
	m := NewModel(sageOver(rng, 5, 4, g), NewReLU(), sageOver(rng, 4, 3, g))
	x := mat.RandNormal(rng, 9, 5, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, []int{0, 2, 4, 6})
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("SAGE gradient check failed: worst %v", worst)
	}
}

func TestGATConvShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Random(10, 20, 6)
	l := NewGATConv(rng, 5, 3, graph.SelfLoopAdjacency(g))
	out := l.Forward(mat.RandNormal(rng, 10, 5, 0, 1), false)
	if out.Rows != 10 || out.Cols != 3 {
		t.Fatalf("shape = %s", out.Shape())
	}
	if l.NumParams() != 5*3+3*3 {
		t.Fatalf("NumParams = %d", l.NumParams())
	}
}

func TestGATAttentionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Random(14, 28, 7)
	l := NewGATConv(rng, 4, 3, graph.SelfLoopAdjacency(g))
	l.Forward(mat.RandNormal(rng, 14, 4, 0, 1), true)
	st := graph.SelfLoopAdjacency(g)
	for i := 0; i < 14; i++ {
		sum := 0.0
		for p := st.RowPtr[i]; p < st.RowPtr[i+1]; p++ {
			a := l.alphaCache[p]
			if a < 0 || a > 1 {
				t.Fatalf("α out of range: %v", a)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d attention sums to %v", i, sum)
		}
	}
}

func TestGradCheckGAT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Random(8, 16, 8)
	m := NewModel(NewGATConv(rng, 4, 5, graph.SelfLoopAdjacency(g)), NewReLU(), NewGATConv(rng, 5, 2, graph.SelfLoopAdjacency(g)))
	x := mat.RandNormal(rng, 8, 4, 0, 1)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, []int{0, 1, 2, 3, 4})
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("GAT gradient check failed: worst %v", worst)
	}
}

func TestGATSingleNodeSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.New(1, nil)
	l := NewGATConv(rng, 3, 2, graph.SelfLoopAdjacency(g))
	x := mat.FromSlice(1, 3, []float64{1, 2, 3})
	out := l.Forward(x, false)
	// With a single self loop, α = 1, so y = Wᵀx + b exactly.
	want := mat.MatMul(x, l.W).AddRowVector(l.B)
	if !out.EqualApprox(want, 1e-12) {
		t.Fatalf("self-attention output %v, want %v", out.Data, want.Data)
	}
}

func TestSAGEGATTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 40
	g, labels := graph.PlantedPartition(graph.PlantedPartitionConfig{
		Nodes: n, Classes: 2, AvgDegree: 6, Homophily: 0.9, Seed: 10,
	})
	x := mat.RandNormal(rng, n, 6, 0, 1)
	for i := 0; i < n; i++ {
		x.Set(i, labels[i], x.At(i, labels[i])+1.5)
	}
	mask := make([]int, n)
	for i := range mask {
		mask[i] = i
	}
	builders := map[string]func() *Model{
		"sage": func() *Model {
			return NewModel(sageOver(rng, 6, 8, g), NewReLU(), sageOver(rng, 8, 2, g))
		},
		"gat": func() *Model {
			return NewModel(NewGATConv(rng, 6, 8, graph.SelfLoopAdjacency(g)), NewReLU(), NewGATConv(rng, 8, 2, graph.SelfLoopAdjacency(g)))
		},
	}
	for name, build := range builders {
		m := build()
		opt := NewAdam(0.02, 0)
		var first, last float64
		for epoch := 0; epoch < 50; epoch++ {
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
			t.Errorf("%s: did not converge (%v → %v)", name, first, last)
		}
	}
}

func TestMultiHeadGATShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := graph.Random(12, 24, 20)
	l := NewMultiHeadGAT(rng, 5, 8, 4, graph.SelfLoopAdjacency(g))
	out := l.Forward(mat.RandNormal(rng, 12, 5, 0, 1), false)
	if out.Rows != 12 || out.Cols != 8 {
		t.Fatalf("shape = %s", out.Shape())
	}
	if l.NumParams() != 4*(5*2+3*2) {
		t.Fatalf("NumParams = %d", l.NumParams())
	}
}

func TestMultiHeadGATInvalidHeadsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.Random(5, 8, 21)
	defer func() {
		if recover() == nil {
			t.Fatal("outDim % heads != 0 did not panic")
		}
	}()
	NewMultiHeadGAT(rng, 4, 7, 2, graph.SelfLoopAdjacency(g))
}

func TestGradCheckMultiHeadGAT(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := graph.Random(8, 16, 22)
	m := NewModel(NewMultiHeadGAT(rng, 4, 6, 2, graph.SelfLoopAdjacency(g)), NewReLU(), NewGATConv(rng, 6, 2, graph.SelfLoopAdjacency(g)))
	x := mat.RandNormal(rng, 8, 4, 0, 1)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	lossFn := func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MaskedCrossEntropy(out, labels, []int{0, 1, 2, 3, 4})
	}
	if worst := GradCheck(m, x, lossFn, 0); worst > 1e-4 {
		t.Fatalf("multi-head GAT gradient check failed: worst %v", worst)
	}
}
