package subgraph

import (
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// FuzzInducedSubgraph checks the extraction invariant against a dense
// reference implementation on fuzzer-shaped graphs: after a hop-1
// expansion with unlimited fanout, the seed rows of
// (relabeled induced CSR) × (gathered feature rows) must equal the same
// rows of the dense full-graph aggregation Â·X — the seeds' 1-hop
// neighbourhood is entirely extracted, so their restricted rows are the
// full rows.
func FuzzInducedSubgraph(f *testing.F) {
	f.Add(uint8(8), uint16(0xBEEF), uint8(2), uint8(3))
	f.Add(uint8(20), uint16(12345), uint8(5), uint8(1))
	f.Add(uint8(2), uint16(7), uint8(1), uint8(1))
	f.Add(uint8(50), uint16(60000), uint8(7), uint8(4))

	f.Fuzz(func(t *testing.T, nRaw uint8, edgeBits uint16, seedRaw, kRaw uint8) {
		n := int(nRaw)%50 + 2
		numEdges := int(edgeBits) % (n * 2)
		g := graph.Random(n, numEdges, int64(edgeBits)*31+int64(seedRaw))
		adj := graph.Normalize(g)

		// Derive 1..4 distinct in-range seeds from the fuzz input.
		numSeeds := int(kRaw)%4 + 1
		var seeds []int
		used := make(map[int]bool)
		s := int(seedRaw)
		for len(seeds) < numSeeds {
			s = (s*31 + 17) % n
			if !used[s] {
				used[s] = true
				seeds = append(seeds, s)
			}
		}

		p := NewPlan(Config{Hops: 1}, len(seeds), n)
		ws := p.NewWorkspace()
		cs := p.NewCSRSpace(adj.NNZ())
		cnt, err := ws.Expand(adj, seeds)
		if err != nil {
			t.Fatalf("Expand(%v): %v", seeds, err)
		}
		sub, err := ws.Induce(adj, cs)
		if err != nil {
			t.Fatalf("Induce: %v", err)
		}
		if sub.N != cnt {
			t.Fatalf("induced N = %d, extracted %d", sub.N, cnt)
		}

		// Deterministic pseudo-features keyed off the node ID.
		d := 3
		x := mat.New(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				x.Set(i, j, float64((i*7+j*13)%11)-5)
			}
		}
		gathered := mat.New(cnt, d)
		GatherRowsInto(gathered, x, ws.Nodes())

		// Dense reference: full Â as a dense matrix times X.
		want := mat.MatMul(adj.Dense(), x)
		got := sub.MulDense(gathered)

		for i, seed := range seeds {
			for j := 0; j < d; j++ {
				gv, wv := got.At(i, j), want.At(seed, j)
				if diff := gv - wv; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("n=%d edges=%d seeds=%v: seed %d col %d: induced %.12f, dense reference %.12f",
						n, numEdges, seeds, seed, j, gv, wv)
				}
			}
		}

		// Structural invariants that hold for every extraction.
		for i := 0; i < sub.N; i++ {
			if sub.RowPtr[i+1] < sub.RowPtr[i] {
				t.Fatalf("row pointers not monotone at %d", i)
			}
			for pi := sub.RowPtr[i]; pi < sub.RowPtr[i+1]; pi++ {
				if c := sub.ColIdx[pi]; c < 0 || c >= sub.N {
					t.Fatalf("induced col %d out of range %d", c, sub.N)
				}
			}
		}
	})
}
