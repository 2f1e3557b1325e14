package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gnnvault/internal/mat"
)

// NormAdjacency is the GCN-normalised adjacency Â = D̃^{-1/2} (A + I) D̃^{-1/2}
// in CSR form, where D̃ is the degree matrix of A + I. It is the operator
// applied in every GCN layer's message-passing step (Eq. 1 of the paper).
//
// Values are stored per non-zero so the structure supports both the forward
// product Â·H and (because Â is symmetric) the backward product Âᵀ·dH with
// the same kernel.
type NormAdjacency struct {
	N      int
	RowPtr []int
	ColIdx []int
	Val    []float64

	// NCols is the column count when the operator is rectangular — a
	// shard of a partitioned graph owns N resident rows but gathers
	// columns from N local + halo positions (see Partition). Zero means
	// square (NCols == N), which every constructor other than
	// NewPartition produces, so existing literals keep their meaning.
	NCols int

	// valMaxAbsHint, when positive, pins ValMaxAbs to the parent
	// operator's global maximum. Shard CSRs carry their parent's bound so
	// int8 plans quantize edge values under the same symmetric scale on
	// every shard — the codes, and therefore the bits, match the
	// single-enclave run.
	valMaxAbsHint float64
}

// ColCount returns the operator's column count: N for the square
// adjacencies built by Normalize and the subgraph inducers, N + halo
// width for a partition shard. Dense operands multiplied from the right
// must span this many rows.
func (na *NormAdjacency) ColCount() int {
	if na.NCols > 0 {
		return na.NCols
	}
	return na.N
}

// Normalize builds the symmetric GCN normalisation of g with self loops.
// The paper stores the private adjacency in COO with a precomputed degree
// vector; this constructor is that precomputation.
func Normalize(g *Graph) *NormAdjacency {
	n := g.N()
	invSqrt := make([]float64, n)
	for u := 0; u < n; u++ {
		invSqrt[u] = 1.0 / math.Sqrt(float64(g.Degree(u)+1)) // +1 self loop
	}
	nnz := len(g.edges) + n
	na := &NormAdjacency{
		N:      n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for u := 0; u < n; u++ {
		nb := g.Neighbors(u)
		// Merge the self loop into the sorted neighbour run.
		inserted := false
		for _, v := range nb {
			if !inserted && u < v {
				na.ColIdx = append(na.ColIdx, u)
				na.Val = append(na.Val, invSqrt[u]*invSqrt[u])
				inserted = true
			}
			na.ColIdx = append(na.ColIdx, v)
			na.Val = append(na.Val, invSqrt[u]*invSqrt[v])
		}
		if !inserted {
			na.ColIdx = append(na.ColIdx, u)
			na.Val = append(na.Val, invSqrt[u]*invSqrt[u])
		}
		na.RowPtr[u+1] = len(na.ColIdx)
	}
	return na
}

// NNZ returns the number of stored non-zeros.
func (na *NormAdjacency) NNZ() int { return len(na.Val) }

// NumBytes returns the in-memory footprint of the normalised adjacency
// (8-byte value + 8-byte index per non-zero, plus the row pointer array),
// used for enclave EPC accounting.
func (na *NormAdjacency) NumBytes() int64 {
	return int64(len(na.Val))*16 + int64(len(na.RowPtr))*8
}

// MulDense returns Â·H where H is a dense N×d matrix. This is the
// message-passing step; it is parallelised over row bands in the normal
// world. Allocating wrapper over MulDenseBiasReLUInto with no epilogue.
func (na *NormAdjacency) MulDense(h *mat.Matrix) *mat.Matrix {
	out := mat.New(na.N, h.Cols)
	na.MulDenseBiasReLUInto(out, h, nil, nil, false, 0)
	return out
}

// NNZBound returns the row boundary of the part-th of parts nnz-balanced
// bands over rows [lo, hi): part 0 maps to lo, part parts to hi, and
// interior boundaries are placed where the CSR's non-zero prefix (RowPtr —
// already a running nnz sum) crosses part/parts of the band's non-zeros.
// Successive boundaries are non-decreasing and always cover [lo, hi)
// exactly, so splitting work as [NNZBound(…, w, W), NNZBound(…, w+1, W))
// per worker partitions every row — including trailing empty ones — while
// balancing the actual non-zero work, which row-count splits badly skew on
// power-law graphs. Runs in O(log(hi-lo)) with no allocation.
func (na *NormAdjacency) NNZBound(lo, hi, part, parts int) int {
	if lo < 0 || hi > na.N || lo > hi {
		panic(fmt.Sprintf("graph: NNZBound range [%d,%d) out of [0,%d)", lo, hi, na.N))
	}
	if parts <= 0 || part < 0 || part > parts {
		panic(fmt.Sprintf("graph: NNZBound part %d/%d", part, parts))
	}
	switch part {
	case 0:
		return lo
	case parts:
		return hi
	}
	base := na.RowPtr[lo]
	total := na.RowPtr[hi] - base
	target := base + int(int64(total)*int64(part)/int64(parts))
	return lo + sort.SearchInts(na.RowPtr[lo:hi], target)
}

// gatherAhead is how many CSR rows ahead of the row being summed the
// products below look: while row i accumulates, row i+gatherAhead's
// column indices are its look-ahead operand (the row contract's
// look-ahead clause, mat/axpy.go), so the source rows they name are on
// their way into cache when their turn comes — a gather from L3 then runs at the
// cache's bandwidth instead of its latency. The window slides over the
// whole CSR, not the range being computed: the tile or band after this
// one usually wants those rows next, and past the last row it is empty.
// Whether the hints are acted on is the kernel's decision, from the
// operands it sees (source size, row width); no product here asks.
//
// Chosen on the build host (Xeon Sapphire Rapids VM, GOMAXPROCS 1) on the
// bench's pubmed20k Vault.PredictInto, 25 interleaved rounds, medians of
// the 64/32/32/16-wide SpMM ops in ms: off 6.74/3.56/4.49/2.68, 1 row
// 5.17/2.32/2.73/1.56, 2 rows 5.36/2.30/2.67/1.66, 3 rows
// 5.51/2.44/2.76/1.70, 4 rows 6.44/2.80/3.16/1.90 and 8 rows
// 7.35/3.01/3.52/2.05 (the last two from a slower session whose "off"
// read 7.39/4.10/5.34/2.92): anything from one to three rows is within
// noise of the best, further ahead the lines start leaving L1 before
// they are used. Two rather than one, so that a row of one or two
// non-zeros is not all the arithmetic the next row's misses hide behind.
const gatherAhead = 2

// checkedCols proves graph rows [lo, hi) safe to walk against a source
// of rows rows — the one place a product over the CSR validates it, once
// per range and before any output row is written (mat.CheckCSR): the row
// pointers of the range and of the gatherAhead rows after it, which the
// fp64 kernel reads without Go's slicing to bound them, and the range's
// column indices, so a corrupt row pointer or column panics instead of
// reading out of bounds, with no row of the destination touched.
func (na *NormAdjacency) checkedCols(lo, hi, rows int) mat.CheckedCSR {
	return mat.CheckCSR(na.RowPtr[:na.N+1], na.ColIdx, na.Val, lo, hi, gatherAhead, rows)
}

// MulDenseBiasReLURangeInto computes rows [lo, hi) of Â·H into dst, which
// must be (hi-lo)×H.Cols — dst row 0 receives graph row lo — with the
// epilogue of the fused exec ops applied to the finished rows while they
// are still hot: dst = epilogue(Â[lo:hi]·H) with the optional bias
// (broadcast), residual res (which must be (hi-lo)×H.Cols, aligned to dst)
// and ReLU applied in canonical order (see mat.CheckedEpilogue); with all
// three unset it is the plain ranged product. H must span all N rows — a
// CSR row's neighbours reach outside [lo, hi) — which is exactly why the
// tiled executor must materialise a layer's full input before streaming
// its output tile by tile. The range is split into nnz-balanced row bands under
// the worker budget (mat.ResolveWorkers semantics); with workers 1 — the
// in-enclave tile form — it runs inline on the calling goroutine and
// never allocates. Rows are independent, so results are bit-identical to
// the unfused op sequence under any banding.
func (na *NormAdjacency) MulDenseBiasReLURangeInto(dst, h *mat.Matrix, lo, hi int, bias []float64, res *mat.Matrix, relu bool, workers int) {
	if h.Rows != na.ColCount() {
		panic(fmt.Sprintf("graph: MulDenseBiasReLURangeInto rows %d != n %d", h.Rows, na.ColCount()))
	}
	if lo < 0 || hi > na.N || lo > hi {
		panic(fmt.Sprintf("graph: MulDenseBiasReLURangeInto range [%d,%d) out of [0,%d)", lo, hi, na.N))
	}
	if dst.Rows != hi-lo || dst.Cols != h.Cols {
		panic(fmt.Sprintf("graph: MulDenseBiasReLURangeInto destination %s, want %dx%d", dst.Shape(), hi-lo, h.Cols))
	}
	mat.RequireNoAlias(dst, h, "graph: MulDenseBiasReLURangeInto")
	if res != nil {
		mat.RequireNoAlias(dst, res, "graph: MulDenseBiasReLURangeInto")
	}
	e := mat.CheckEpilogue(dst.Rows, dst.Cols, bias, res, relu)
	w := mat.ResolveWorkers(workers, hi-lo)
	if w <= 1 || hi-lo < 256 {
		na.mulDenseEpilogueRange(dst, h, lo, hi, lo, &e)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		blo := na.NNZBound(lo, hi, i, w)
		bhi := na.NNZBound(lo, hi, i+1, w)
		if blo >= bhi {
			continue
		}
		wg.Add(1)
		// e by value: captured, it would move to the heap on the inline
		// path too, which must not allocate.
		go func(blo, bhi int, e mat.CheckedEpilogue) {
			defer wg.Done()
			na.mulDenseEpilogueRange(dst, h, blo, bhi, lo, &e)
		}(blo, bhi, e)
	}
	wg.Wait()
}

// MulDenseBiasReLUInto is the full-height fused product dst =
// epilogue(Â·H): MulDenseBiasReLURangeInto over every row. res, when
// non-nil, must match dst's shape. With no epilogue set it is the plain
// product MulDense and its allocating siblings run.
func (na *NormAdjacency) MulDenseBiasReLUInto(dst, h *mat.Matrix, bias []float64, res *mat.Matrix, relu bool, workers int) {
	na.MulDenseBiasReLURangeInto(dst, h, 0, na.N, bias, res, relu, workers)
}

// mulDenseEpilogueRange computes graph rows [lo,hi) of Â·H into dst rows
// [lo-base, hi-base), each finished by e's epilogue, as one sparse range
// (mat.CheckedEpilogue.SparseRange): a CSR row's values and column
// indices are the multipliers and row indices of one row accumulate,
// which starts the row from its first term and clears it when the CSR row
// is empty, and the column indices gatherAhead rows on ride along as
// hints. Rows are independent, so the element order — and the bits — are
// those of the unfused op sequence under any banding.
func (na *NormAdjacency) mulDenseEpilogueRange(dst, h *mat.Matrix, lo, hi, base int, e *mat.CheckedEpilogue) {
	c := na.checkedCols(lo, hi, h.Rows)
	e.SparseRange(dst.Data[(lo-base)*h.Cols:(hi-base)*h.Cols], &c, h.Data, lo-base)
}

// Dense materialises Â as a dense matrix. Tests only.
func (na *NormAdjacency) Dense() *mat.Matrix {
	d := mat.New(na.N, na.N)
	for i := 0; i < na.N; i++ {
		for p := na.RowPtr[i]; p < na.RowPtr[i+1]; p++ {
			d.Set(i, na.ColIdx[p], na.Val[p])
		}
	}
	return d
}

// RowSumsOfSquares returns Σ_j Â[i,j]² per row; used by tests to check the
// normalisation invariants.
func (na *NormAdjacency) RowSumsOfSquares() []float64 {
	out := make([]float64, na.N)
	for i := 0; i < na.N; i++ {
		for p := na.RowPtr[i]; p < na.RowPtr[i+1]; p++ {
			out[i] += na.Val[p] * na.Val[p]
		}
	}
	return out
}
