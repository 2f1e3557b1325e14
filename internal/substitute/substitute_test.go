package substitute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gnnvault/internal/datasets"
	"gnnvault/internal/mat"
)

func clusteredFeatures(rng *rand.Rand, n, d, classes int) (*mat.Matrix, []int) {
	x := mat.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = 0.1 * rng.NormFloat64()
		}
		// Strong class-aligned component.
		row[c%d] += 3
	}
	return x, labels
}

func TestKNNDegreesAtLeastK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := clusteredFeatures(rng, 50, 10, 5)
	g := KNN(x, 3)
	if g.N() != 50 {
		t.Fatalf("n = %d", g.N())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) < 3 {
			t.Fatalf("deg(%d) = %d < k after symmetrisation", u, g.Degree(u))
		}
	}
}

func TestKNNConnectsSameClass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := clusteredFeatures(rng, 100, 20, 4)
	g := KNN(x, 2)
	if h := g.Homophily(labels); h < 0.9 {
		t.Fatalf("KNN homophily = %v, want high for separable clusters", h)
	}
}

func TestKNNInvalidKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	KNN(mat.New(5, 2), 0)
}

func TestKNNKClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := clusteredFeatures(rng, 6, 4, 2)
	g := KNN(x, 100) // k >= n clamps to n-1 → complete graph
	if g.NumUndirectedEdges() != 15 {
		t.Fatalf("edges = %d, want complete K6 = 15", g.NumUndirectedEdges())
	}
}

func TestCosineThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, _ := clusteredFeatures(rng, 80, 16, 4)
	loose := Cosine(x, 0.2)
	tight := Cosine(x, 0.8)
	if tight.NumUndirectedEdges() > loose.NumUndirectedEdges() {
		t.Fatalf("tightening τ added edges: %d > %d",
			tight.NumUndirectedEdges(), loose.NumUndirectedEdges())
	}
}

func TestCosineHighThresholdSameClassOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, labels := clusteredFeatures(rng, 100, 20, 4)
	g := Cosine(x, 0.9)
	if g.NumUndirectedEdges() == 0 {
		t.Skip("threshold too tight for this sample")
	}
	if h := g.Homophily(labels); h < 0.95 {
		t.Fatalf("high-τ cosine graph homophily = %v", h)
	}
}

func TestCosineDensityMatched(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _ := clusteredFeatures(rng, 60, 12, 3)
	want := 100
	g, tau := CosineDensityMatched(x, want)
	// Ties at the threshold may add a few extra edges but never fewer.
	if g.NumUndirectedEdges() < want {
		t.Fatalf("edges = %d, want >= %d", g.NumUndirectedEdges(), want)
	}
	if g.NumUndirectedEdges() > want+want/5 {
		t.Fatalf("edges = %d, way above target %d (τ=%v)", g.NumUndirectedEdges(), want, tau)
	}
}

func TestRandomFractionScalesEdges(t *testing.T) {
	g1 := Random(100, 200, 0.5, 7)
	g2 := Random(100, 200, 1.0, 7)
	if g1.NumUndirectedEdges() != 100 || g2.NumUndirectedEdges() != 200 {
		t.Fatalf("edges = %d, %d; want 100, 200", g1.NumUndirectedEdges(), g2.NumUndirectedEdges())
	}
}

func TestRandomNegativeFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative fraction did not panic")
		}
	}()
	Random(10, 10, -1, 1)
}

func TestBuildKinds(t *testing.T) {
	ds := datasets.Load("cora")
	real := ds.Graph.NumUndirectedEdges()
	for _, kind := range []Kind{KindKNN, KindCosine, KindRandom} {
		g := Build(kind, ds.X, 2, real, 9)
		if g == nil || g.N() != ds.X.Rows {
			t.Errorf("%s: bad graph", kind)
			continue
		}
		if g.NumUndirectedEdges() == 0 {
			t.Errorf("%s: empty substitute graph", kind)
		}
	}
	if Build(KindDNN, ds.X, 2, real, 9) != nil {
		t.Error("DNN kind should produce no graph")
	}
}

func TestBuildUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	Build(Kind("bogus"), mat.New(3, 2), 1, 1, 0)
}

func TestSubstituteNeverSeesPrivateEdges(t *testing.T) {
	// Two datasets with identical features but different private graphs
	// must produce identical substitute graphs: the builders are functions
	// of X only.
	ds := datasets.Load("cora")
	g1 := KNN(ds.X, 2)
	g2 := KNN(ds.X.Clone(), 2)
	if !g1.Equal(g2) {
		t.Fatal("KNN output depends on something besides the features")
	}
}

func TestKNNRecoversPartOfRealGraph(t *testing.T) {
	// On a feature-correlated dataset the KNN substitute graph should be
	// much more class-homophilous than random — the property Table III
	// relies on.
	ds := datasets.Load("cora")
	knn := KNN(ds.X, 2)
	rnd := Random(ds.X.Rows, ds.Graph.NumUndirectedEdges(), 1.0, 11)
	hKNN := knn.Homophily(ds.Labels)
	hRnd := rnd.Homophily(ds.Labels)
	if hKNN < hRnd+0.2 {
		t.Fatalf("KNN homophily %v not clearly above random %v", hKNN, hRnd)
	}
}

func TestPropKNNDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, _ := clusteredFeatures(rng, 20+rng.Intn(30), 8, 3)
		return KNN(x, 2).Equal(KNN(x, 2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
