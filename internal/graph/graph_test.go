package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gnnvault/internal/mat"
)

func pathGraph(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return New(n, edges)
}

func TestNewDedupAndSymmetry(t *testing.T) {
	g := New(4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 3}})
	if g.NumUndirectedEdges() != 2 {
		t.Fatalf("undirected edges = %d, want 2", g.NumUndirectedEdges())
	}
	if g.NumDirectedEdges() != 4 {
		t.Fatalf("directed edges = %d, want 4", g.NumDirectedEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(3, 2) {
		t.Fatal("symmetric edge missing")
	}
}

func TestNewDropsSelfLoops(t *testing.T) {
	g := New(3, []Edge{{0, 0}, {1, 2}})
	if g.HasEdge(0, 0) {
		t.Fatal("self loop retained")
	}
	if g.NumUndirectedEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumUndirectedEdges())
	}
}

func TestNewOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2, []Edge{{0, 5}})
}

func TestDegreeNeighbors(t *testing.T) {
	g := New(5, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.Degree(0) != 3 {
		t.Fatalf("deg(0) = %d, want 3", g.Degree(0))
	}
	if g.Degree(4) != 0 {
		t.Fatalf("deg(4) = %d, want 0", g.Degree(4))
	}
	nb := g.Neighbors(0)
	want := []int{1, 2, 3}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", nb, want)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := pathGraph(4)
	if !g.HasEdge(1, 2) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong on path graph")
	}
}

func TestUndirectedEdges(t *testing.T) {
	g := New(3, []Edge{{2, 0}, {1, 2}})
	ue := g.UndirectedEdges()
	if len(ue) != 2 {
		t.Fatalf("len = %d, want 2", len(ue))
	}
	for _, e := range ue {
		if e.U >= e.V {
			t.Fatalf("representative edge not ordered: %+v", e)
		}
	}
}

func TestDensityAvgDegree(t *testing.T) {
	g := New(4, []Edge{{0, 1}, {2, 3}})
	if got := g.Density(); got != 2.0/6.0 {
		t.Fatalf("Density = %v", got)
	}
	if got := g.AvgDegree(); got != 1.0 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

func TestDenseAdjacencyBytes(t *testing.T) {
	g := New(1000, nil)
	if got := g.DenseAdjacencyBytes(); got != 8_000_000 {
		t.Fatalf("DenseAdjacencyBytes = %d", got)
	}
}

func TestHomophily(t *testing.T) {
	g := New(4, []Edge{{0, 1}, {2, 3}, {0, 2}})
	labels := []int{0, 0, 1, 1}
	// Directed edges: (0,1),(1,0),(2,3),(3,2) same-label; (0,2),(2,0) not.
	if got := g.Homophily(labels); got != 4.0/6.0 {
		t.Fatalf("Homophily = %v, want 2/3", got)
	}
}

func TestHomophilyBadLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad labels did not panic")
		}
	}()
	New(3, nil).Homophily([]int{0})
}

func TestDenseMatchesHasEdge(t *testing.T) {
	g := New(4, []Edge{{0, 1}, {1, 3}})
	d := g.dense()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if g.HasEdge(i, j) {
				want = 1
			}
			if d.At(i, j) != want {
				t.Fatalf("Dense(%d,%d) = %v, want %v", i, j, d.At(i, j), want)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := New(3, []Edge{{0, 1}})
	b := New(3, []Edge{{1, 0}})
	c := New(3, []Edge{{1, 2}})
	if !a.Equal(b) {
		t.Fatal("a != b despite same edge set")
	}
	if a.Equal(c) {
		t.Fatal("a == c despite different edges")
	}
}

func TestPropSymmetryInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		var edges []Edge
		for i := 0; i < rng.Intn(60); i++ {
			edges = append(edges, Edge{rng.Intn(n), rng.Intn(n)})
		}
		g := New(n, edges)
		for _, e := range g.edges {
			if !g.HasEdge(e.V, e.U) {
				return false
			}
			if e.U == e.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropDegreeSumEqualsDirectedEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := Random(n, rng.Intn(n*2), seed)
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
		}
		return sum == g.NumDirectedEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// dense returns the dense {0,1} adjacency matrix.
func (g *Graph) dense() *mat.Matrix {
	a := mat.New(g.n, g.n)
	for _, e := range g.edges {
		a.Set(e.U, e.V, 1)
	}
	return a
}
