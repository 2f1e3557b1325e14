package graph

import (
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// nnzTestAdj builds a deliberately skewed adjacency: node 0 is a hub
// connected to everyone, the tail is sparse — the power-law shape that
// breaks row-count partitions.
func nnzTestAdj(n int) *NormAdjacency {
	var edges []Edge
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{U: 0, V: v})
	}
	for v := 3; v+1 < n; v += 2 {
		edges = append(edges, Edge{U: v, V: v + 1})
	}
	return Normalize(New(n, edges))
}

// TestNNZBoundPartitionProperties checks the partition contract: for any
// band and part count the boundaries are monotone, cover the band
// exactly, and split the non-zeros within one row's worth of balance.
func TestNNZBoundPartitionProperties(t *testing.T) {
	na := nnzTestAdj(101)
	for _, span := range [][2]int{{0, na.N}, {5, 90}, {40, 41}, {7, 7}} {
		lo, hi := span[0], span[1]
		for _, parts := range []int{1, 2, 3, 8, 64} {
			prev := lo
			for w := 0; w <= parts; w++ {
				b := na.NNZBound(lo, hi, w, parts)
				if b < prev || b > hi {
					t.Fatalf("span [%d,%d) parts=%d: bound %d at part %d not monotone in [%d,%d]", lo, hi, parts, b, w, prev, hi)
				}
				prev = b
			}
			if first, last := na.NNZBound(lo, hi, 0, parts), na.NNZBound(lo, hi, parts, parts); first != lo || last != hi {
				t.Fatalf("span [%d,%d) parts=%d: cover [%d,%d)", lo, hi, parts, first, last)
			}
			// Each interior band holds at most its fair share plus the
			// largest single row (rows are indivisible).
			total := na.RowPtr[hi] - na.RowPtr[lo]
			maxRow := 0
			for i := lo; i < hi; i++ {
				if r := na.RowPtr[i+1] - na.RowPtr[i]; r > maxRow {
					maxRow = r
				}
			}
			for w := 0; w < parts; w++ {
				bLo := na.NNZBound(lo, hi, w, parts)
				bHi := na.NNZBound(lo, hi, w+1, parts)
				got := na.RowPtr[bHi] - na.RowPtr[bLo]
				if fair := total/parts + maxRow; got > fair {
					t.Fatalf("span [%d,%d) parts=%d: band %d holds %d nnz, fair share+maxRow is %d", lo, hi, parts, w, got, fair)
				}
			}
		}
	}
}

// TestMulDenseNNZBalancedMatchesSerial checks the nnz-balanced parallel
// bands still compute exactly the serial product, trailing empty rows
// included.
func TestMulDenseNNZBalancedMatchesSerial(t *testing.T) {
	na := nnzTestAdj(400)
	rng := rand.New(rand.NewSource(4))
	h := mat.New(na.N, 7)
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	want := mat.New(na.N, 7)
	na.MulDenseBiasReLUInto(want, h, nil, nil, false, 1)
	for _, w := range []int{2, 3, 8} {
		got := mat.New(na.N, 7)
		// Poison the buffer: unwritten rows would leak through.
		for i := range got.Data {
			got.Data[i] = 42
		}
		na.MulDenseBiasReLUInto(got, h, nil, nil, false, w)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: nnz-balanced product differs from serial", w)
		}
	}
}

// TestMulDenseBiasReLUMatchesUnfused pins the fused sparse kernels —
// full-height banded and tile-range forms — to the exact bits of the
// unfused op sequence.
func TestMulDenseBiasReLUMatchesUnfused(t *testing.T) {
	na := nnzTestAdj(300)
	rng := rand.New(rand.NewSource(5))
	const d = 6
	h := mat.New(na.N, d)
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	bias := make([]float64, d)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	res := mat.New(na.N, d)
	for i := range res.Data {
		res.Data[i] = rng.NormFloat64()
	}

	want := mat.New(na.N, d)
	na.MulDenseBiasReLUInto(want, h, nil, nil, false, 1)
	mat.AddBiasInto(want, want, bias)
	mat.AddInto(want, want, res)
	mat.ReLUInto(want, want)

	for _, w := range []int{1, 4} {
		got := mat.New(na.N, d)
		na.MulDenseBiasReLUInto(got, h, bias, res, true, w)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: fused product differs from unfused sequence", w)
		}
	}

	// Tile-range form: assemble the same result tile by tile.
	got := mat.New(na.N, d)
	tile := mat.New(64, d)
	resTile := &mat.Matrix{}
	for lo := 0; lo < na.N; lo += 64 {
		hi := min(lo+64, na.N)
		view := &mat.Matrix{Rows: hi - lo, Cols: d, Data: tile.Data[:(hi-lo)*d]}
		res.ViewRows(lo, hi, resTile)
		na.MulDenseBiasReLURangeInto(view, h, lo, hi, bias, resTile, true, 1)
		copy(got.Data[lo*d:hi*d], view.Data)
	}
	if !got.Equal(want) {
		t.Fatal("tiled fused product differs from unfused sequence")
	}
}
