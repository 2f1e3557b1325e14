package subgraph

import (
	"errors"
	"math/rand"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// testGraph builds a deterministic random graph and its normalisation.
func testGraph(t testing.TB, n, edges int, seed int64) (*graph.Graph, *graph.NormAdjacency) {
	t.Helper()
	g := graph.Random(n, edges, seed)
	return g, graph.Normalize(g)
}

func TestPlanSizing(t *testing.T) {
	p := NewPlan(Config{Hops: 2, Fanout: 10}, 8, 100000)
	want := 8 * (1 + 10 + 100)
	if p.CapNodes != want {
		t.Fatalf("CapNodes = %d, want %d", p.CapNodes, want)
	}
	if got := p.CapEdges(1 << 30); got != want*11 {
		t.Fatalf("CapEdges = %d, want %d", got, want*11)
	}
	// Unlimited fanout must cover the whole graph.
	p0 := NewPlan(Config{Hops: 3}, 4, 500)
	if p0.CapNodes != 500 {
		t.Fatalf("unlimited-fanout CapNodes = %d, want 500", p0.CapNodes)
	}
	if got := p0.CapEdges(1234); got != 1234 {
		t.Fatalf("unlimited-fanout CapEdges = %d, want 1234", got)
	}
	// Sizing saturates at N even for explosive fanout.
	pBig := NewPlan(Config{Hops: 4, Fanout: 1000}, 64, 300)
	if pBig.CapNodes != 300 {
		t.Fatalf("saturated CapNodes = %d, want 300", pBig.CapNodes)
	}
}

func TestExpandExactLHop(t *testing.T) {
	g, adj := testGraph(t, 200, 400, 7)
	p := NewPlan(Config{Hops: 2}, 4, g.N())
	ws := p.NewWorkspace()

	seeds := []int{3, 77}
	n, err := ws.Expand(adj, seeds)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	// Reference: exact 2-hop BFS over the raw graph.
	want := map[int]bool{}
	frontier := append([]int{}, seeds...)
	for _, s := range seeds {
		want[s] = true
	}
	for hop := 0; hop < 2; hop++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if !want[v] {
					want[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	if n != len(want) {
		t.Fatalf("extracted %d nodes, want %d", n, len(want))
	}
	for i, u := range ws.Nodes() {
		if !want[u] {
			t.Fatalf("extracted node %d not in reference 2-hop set", u)
		}
		if i < len(seeds) && u != seeds[i] {
			t.Fatalf("local %d = %d, want seed %d", i, u, seeds[i])
		}
	}
}

func TestExpandFanoutBound(t *testing.T) {
	g, adj := testGraph(t, 400, 3000, 3)
	p := NewPlan(Config{Hops: 2, Fanout: 3, Seed: 9}, 2, g.N())
	ws := p.NewWorkspace()
	n, err := ws.Expand(adj, []int{1, 2})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if n > p.CapNodes {
		t.Fatalf("extracted %d nodes > plan cap %d", n, p.CapNodes)
	}
	sub, err := ws.Induce(adj, p.NewCSRSpace(adj.NNZ()))
	if err != nil {
		t.Fatalf("Induce: %v", err)
	}
	for i := 0; i < sub.N; i++ {
		row := sub.RowPtr[i+1] - sub.RowPtr[i]
		if row > p.Cfg.Fanout+1 {
			t.Fatalf("induced row %d has %d entries > fanout+1 = %d", i, row, p.Cfg.Fanout+1)
		}
	}
}

func TestExpandDeterminism(t *testing.T) {
	g, adj := testGraph(t, 300, 2000, 5)
	p := NewPlan(Config{Hops: 2, Fanout: 4, Seed: 42}, 4, g.N())
	ws1, ws2 := p.NewWorkspace(), p.NewWorkspace()

	// Interleave unrelated queries on ws2 to prove extraction is a pure
	// function of (seeds, config), not of sampler history.
	if _, err := ws2.Expand(adj, []int{9, 8, 7}); err != nil {
		t.Fatalf("warmup Expand: %v", err)
	}

	seeds := []int{11, 222}
	n1, err := ws1.Expand(adj, seeds)
	if err != nil {
		t.Fatalf("Expand ws1: %v", err)
	}
	n2, err := ws2.Expand(adj, seeds)
	if err != nil {
		t.Fatalf("Expand ws2: %v", err)
	}
	if n1 != n2 {
		t.Fatalf("node counts differ: %d vs %d", n1, n2)
	}
	for i := range ws1.Nodes() {
		if ws1.Nodes()[i] != ws2.Nodes()[i] {
			t.Fatalf("node %d differs: %d vs %d", i, ws1.Nodes()[i], ws2.Nodes()[i])
		}
	}
}

func TestExpandErrors(t *testing.T) {
	_, adj := testGraph(t, 50, 100, 1)
	p := NewPlan(Config{Hops: 1}, 2, 50)
	ws := p.NewWorkspace()
	if _, err := ws.Expand(adj, nil); !errors.Is(err, ErrNoSeeds) {
		t.Fatalf("empty seeds: err = %v, want ErrNoSeeds", err)
	}
	if _, err := ws.Expand(adj, []int{1, 2, 3}); !errors.Is(err, ErrTooManySeeds) {
		t.Fatalf("over cap: err = %v, want ErrTooManySeeds", err)
	}
	if _, err := ws.Expand(adj, []int{-1}); !errors.Is(err, ErrSeedOutOfRange) {
		t.Fatalf("negative: err = %v, want ErrSeedOutOfRange", err)
	}
	if _, err := ws.Expand(adj, []int{50}); !errors.Is(err, ErrSeedOutOfRange) {
		t.Fatalf("== n: err = %v, want ErrSeedOutOfRange", err)
	}
	if _, err := ws.Expand(adj, []int{4, 4}); !errors.Is(err, ErrDuplicateSeed) {
		t.Fatalf("dup: err = %v, want ErrDuplicateSeed", err)
	}
	// A failed Expand must not poison the next one.
	if _, err := ws.Expand(adj, []int{4, 5}); err != nil {
		t.Fatalf("Expand after errors: %v", err)
	}
}

// TestInduceHop1Exact is the non-fuzz form of the extraction invariant:
// with unlimited fanout, the seed rows of (induced CSR)·(gathered
// features) equal the same rows of the full-graph aggregation Â·X.
func TestInduceHop1Exact(t *testing.T) {
	g, adj := testGraph(t, 120, 360, 11)
	rng := rand.New(rand.NewSource(2))
	x := mat.RandUniform(rng, g.N(), 7, -1, 1)

	p := NewPlan(Config{Hops: 1}, 3, g.N())
	ws := p.NewWorkspace()
	cs := p.NewCSRSpace(adj.NNZ())
	seeds := []int{5, 60, 119}
	n, err := ws.Expand(adj, seeds)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	sub, err := ws.Induce(adj, cs)
	if err != nil {
		t.Fatalf("Induce: %v", err)
	}

	gathered := mat.New(n, x.Cols)
	GatherRowsInto(gathered, x, ws.Nodes())
	got := sub.MulDense(gathered)
	want := adj.MulDense(x)

	for i, s := range seeds {
		for j := 0; j < x.Cols; j++ {
			g, w := got.At(i, j), want.At(s, j)
			if diff := g - w; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("seed %d col %d: induced %.15f, full %.15f", s, j, g, w)
			}
		}
	}
}

func TestInduceSecondOperator(t *testing.T) {
	// Expansion over a public operator, induction over a different private
	// one on the same node universe — the GNNVault deployment shape.
	gPub, adjPub := testGraph(t, 150, 300, 21)
	_, adjPriv := testGraph(t, 150, 500, 22)
	p := NewPlan(Config{Hops: 2}, 2, gPub.N())
	ws := p.NewWorkspace()
	if _, err := ws.Expand(adjPub, []int{10, 20}); err != nil {
		t.Fatalf("Expand: %v", err)
	}
	sub, err := ws.Induce(adjPriv, p.NewCSRSpace(adjPriv.NNZ()))
	if err != nil {
		t.Fatalf("Induce: %v", err)
	}
	// Every induced entry must correspond to a real private-operator entry
	// between extracted nodes, with its exact value.
	nodes := ws.Nodes()
	for i := 0; i < sub.N; i++ {
		for pi := sub.RowPtr[i]; pi < sub.RowPtr[i+1]; pi++ {
			u, v := nodes[i], nodes[sub.ColIdx[pi]]
			found := false
			for q := adjPriv.RowPtr[u]; q < adjPriv.RowPtr[u+1]; q++ {
				if adjPriv.ColIdx[q] == v {
					if adjPriv.Val[q] != sub.Val[pi] {
						t.Fatalf("entry (%d,%d): induced %v, private %v", u, v, sub.Val[pi], adjPriv.Val[q])
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("induced entry (%d,%d) not in private operator", u, v)
			}
		}
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	g, adj := testGraph(t, 500, 2500, 13)
	p := NewPlan(Config{Hops: 2, Fanout: 5, Seed: 1}, 4, g.N())
	ws := p.NewWorkspace()
	cs := p.NewCSRSpace(adj.NNZ())
	rng := rand.New(rand.NewSource(3))
	x := mat.RandUniform(rng, g.N(), 6, -1, 1)
	feat := mat.New(p.CapNodes, x.Cols)

	seeds := []int{1, 100, 200, 300}
	allocs := testing.AllocsPerRun(50, func() {
		n, err := ws.Expand(adj, seeds)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		if _, err := ws.Induce(adj, cs); err != nil {
			t.Fatalf("Induce: %v", err)
		}
		feat.Rows = n
		feat.Data = feat.Data[:n*feat.Cols]
		GatherRowsInto(feat, x, ws.Nodes())
	})
	if allocs != 0 {
		t.Fatalf("hot extraction path allocates %.1f per run, want 0", allocs)
	}
}
