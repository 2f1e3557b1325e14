package graph

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// reassemble multiplies each shard's rectangular CSR against a halo-
// extended view of h and stitches the shard outputs back into global row
// order — the exact data movement the fleet's halo op performs.
func reassemble(t *testing.T, p *Partition, h *mat.Matrix) *mat.Matrix {
	t.Helper()
	n := p.Bounds[len(p.Bounds)-1]
	out := mat.New(n, h.Cols)
	for s := 0; s < p.Shards(); s++ {
		rows := p.Rows(s)
		lo := p.Bounds[s]
		ext := mat.New(rows+len(p.Halo[s]), h.Cols)
		for i := 0; i < rows; i++ {
			copy(ext.Data[i*h.Cols:(i+1)*h.Cols], h.Data[(lo+i)*h.Cols:(lo+i+1)*h.Cols])
		}
		for k, c := range p.Halo[s] {
			copy(ext.Data[(rows+k)*h.Cols:(rows+k+1)*h.Cols], h.Data[c*h.Cols:(c+1)*h.Cols])
		}
		dst := mat.New(rows, h.Cols)
		p.CSR[s].MulDenseBiasReLURangeInto(dst, ext, 0, rows, nil, nil, false, 1)
		copy(out.Data[lo*h.Cols:(lo+rows)*h.Cols], dst.Data)
	}
	return out
}

func TestPartition(t *testing.T) {
	hub := make([]Edge, 0, 9)
	for v := 1; v < 10; v++ {
		hub = append(hub, Edge{0, v})
	}
	rng := rand.New(rand.NewSource(7))
	skewed := make([]Edge, 0, 600)
	for i := 0; i < 300; i++ {
		// Power-law-ish: low-id nodes soak up most edges.
		u := rng.Intn(1 + rng.Intn(40))
		v := rng.Intn(200)
		if u != v {
			skewed = append(skewed, Edge{u, v})
		}
	}
	cases := []struct {
		name   string
		graph  *Graph
		shards int
	}{
		{"path/1shard", New(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}), 1},
		{"path/3shards", New(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}), 3},
		{"singleton", New(1, nil), 2},
		{"edgeless", New(5, nil), 3},
		{"hub/2shards", New(10, hub), 2},
		{"hub/4shards", New(10, hub), 4},
		{"shards>rows", New(3, []Edge{{0, 1}, {1, 2}}), 8},
		{"skewed/4shards", New(200, skewed), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			na := Normalize(tc.graph)
			p := NewPartition(na, tc.shards)
			if got := p.Shards(); got != tc.shards {
				t.Fatalf("Shards() = %d, want %d", got, tc.shards)
			}
			if p.Bounds[0] != 0 || p.Bounds[tc.shards] != na.N {
				t.Fatalf("bounds %v do not cover [0,%d)", p.Bounds, na.N)
			}
			for s := 0; s < tc.shards; s++ {
				lo, hi := p.Bounds[s], p.Bounds[s+1]
				if lo > hi {
					t.Fatalf("shard %d bounds [%d,%d) decrease", s, lo, hi)
				}
				csr := p.CSR[s]
				if csr.N != hi-lo {
					t.Fatalf("shard %d CSR rows %d, want %d", s, csr.N, hi-lo)
				}
				if want := (hi - lo) + len(p.Halo[s]); csr.ColCount() != want {
					t.Fatalf("shard %d ColCount %d, want %d", s, csr.ColCount(), want)
				}
				if csr.ValMaxAbs() != na.ValMaxAbs() {
					t.Fatalf("shard %d ValMaxAbs %g != parent %g", s, csr.ValMaxAbs(), na.ValMaxAbs())
				}
				prev := -1
				for _, c := range p.Halo[s] {
					if c >= lo && c < hi {
						t.Fatalf("shard %d halo col %d inside own range [%d,%d)", s, c, lo, hi)
					}
					if c <= prev {
						t.Fatalf("shard %d halo %v not sorted/deduped", s, p.Halo[s])
					}
					prev = c
				}
				// Every remapped non-zero round-trips to its global column.
				for i := 0; i < csr.N; i++ {
					for q := csr.RowPtr[i]; q < csr.RowPtr[i+1]; q++ {
						gq := na.RowPtr[lo] + q
						var global int
						if c := csr.ColIdx[q]; c < csr.N {
							global = lo + c
						} else {
							global = p.Halo[s][c-csr.N]
						}
						if global != na.ColIdx[gq] {
							t.Fatalf("shard %d row %d nnz %d remaps to %d, want %d", s, i, q, global, na.ColIdx[gq])
						}
						if csr.Val[q] != na.Val[gq] {
							t.Fatalf("shard %d row %d nnz %d value %g, want %g", s, i, q, csr.Val[q], na.Val[gq])
						}
					}
				}
			}
			for i := 0; i < na.N; i++ {
				s := p.Owner(i)
				if i < p.Bounds[s] || i >= p.Bounds[s+1] {
					t.Fatalf("Owner(%d) = %d with bounds %v", i, s, p.Bounds)
				}
			}
			if na.N == 0 {
				return
			}
			// Sharded SpMM through the halo-extended operands must be
			// bit-identical to the unsharded product.
			h := mat.New(na.N, 3)
			for i := range h.Data {
				h.Data[i] = rng.NormFloat64()
			}
			want := na.MulDense(h)
			got := reassemble(t, p, h)
			for i, v := range want.Data {
				if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
					t.Fatalf("element %d: sharded %g != unsharded %g", i, got.Data[i], v)
				}
			}
		})
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	na := Normalize(New(4, []Edge{{0, 1}, {2, 3}}))
	mustPanic(t, func() { NewPartition(na, 0) })
	p := NewPartition(na, 2)
	mustPanic(t, func() { p.Owner(-1) })
	mustPanic(t, func() { p.Owner(4) })
	mustPanic(t, func() { NewPartition(p.CSR[0], 2) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
