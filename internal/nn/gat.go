package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// GATConv is a single-head graph attention layer (Veličković et al.), the
// second architecture named in the paper's future work:
//
//	z_i    = W·x_i
//	e_ij   = LeakyReLU(aₛ·z_i + aₜ·z_j)        for j ∈ N(i) ∪ {i}
//	α_i·   = softmax_j(e_ij)
//	y_i    = Σ_j α_ij z_j + b
//
// Attention coefficients are recomputed per forward pass over a fixed
// CSR structure (adjacency with self loops).
type GATConv struct {
	InDim, OutDim int
	W             *mat.Matrix
	ASrc, ADst    []float64 // aₛ, aₜ — the split attention vector
	B             []float64
	NegSlope      float64 // LeakyReLU slope, default 0.2

	dW           *mat.Matrix
	dASrc, dADst []float64
	dbAcc        []float64

	struct_ *graph.NormAdjacency // adjacency structure incl. self loops

	// training caches
	xCache     *mat.Matrix
	zCache     *mat.Matrix
	alphaCache []float64 // per-edge attention, aligned with struct_ nnz
	preCache   []float64 // pre-activation e_ij before LeakyReLU
}

// NewGATConv constructs a single-head GAT layer over the attention
// structure st (graph.SelfLoopAdjacency; only its RowPtr/ColIdx are read).
// The structure is shared, not copied: the layers and heads of one model
// are handed the same one, as GCN layers are handed one Â.
func NewGATConv(rng *rand.Rand, inDim, outDim int, st *graph.NormAdjacency) *GATConv {
	if st == nil {
		panic("nn: GATConv requires an attention structure")
	}
	aSrc := make([]float64, outDim)
	aDst := make([]float64, outDim)
	bound := math.Sqrt(6.0 / float64(outDim+1))
	for i := range aSrc {
		aSrc[i] = (2*rng.Float64() - 1) * bound
		aDst[i] = (2*rng.Float64() - 1) * bound
	}
	return &GATConv{
		InDim:    inDim,
		OutDim:   outDim,
		W:        mat.Glorot(rng, inDim, outDim),
		ASrc:     aSrc,
		ADst:     aDst,
		B:        make([]float64, outDim),
		NegSlope: 0.2,
		dW:       mat.New(inDim, outDim),
		dASrc:    make([]float64, outDim),
		dADst:    make([]float64, outDim),
		dbAcc:    make([]float64, outDim),
		struct_:  st,
	}
}

// Structure returns the CSR structure (adjacency with self loops) the
// layer attends over.
func (l *GATConv) Structure() *graph.NormAdjacency { return l.struct_ }

// Forward computes attention-weighted aggregation.
func (l *GATConv) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GATConv input dim %d, want %d", x.Cols, l.InDim))
	}
	z := mat.MatMul(x, l.W)
	n := z.Rows
	s := make([]float64, n) // aₛ·z_i
	t := make([]float64, n) // aₜ·z_j
	for i := 0; i < n; i++ {
		zi := z.Row(i)
		var ss, tt float64
		for k, v := range zi {
			ss += l.ASrc[k] * v
			tt += l.ADst[k] * v
		}
		s[i], t[i] = ss, tt
	}

	st := l.struct_
	alpha := make([]float64, st.NNZ())
	pre := make([]float64, st.NNZ())
	out := mat.New(n, l.OutDim)
	for i := 0; i < n; i++ {
		lo, hi := st.RowPtr[i], st.RowPtr[i+1]
		// Numerically stable softmax over the neighbourhood.
		mx := math.Inf(-1)
		for p := lo; p < hi; p++ {
			e := s[i] + t[st.ColIdx[p]]
			pre[p] = e
			if e < 0 {
				e *= l.NegSlope
			}
			alpha[p] = e
			if e > mx {
				mx = e
			}
		}
		sum := 0.0
		for p := lo; p < hi; p++ {
			alpha[p] = math.Exp(alpha[p] - mx)
			sum += alpha[p]
		}
		orow := out.Row(i)
		for p := lo; p < hi; p++ {
			alpha[p] /= sum
			zj := z.Row(st.ColIdx[p])
			a := alpha[p]
			for k, v := range zj {
				orow[k] += a * v
			}
		}
	}
	if train {
		l.xCache = x
		l.zCache = z
		l.alphaCache = alpha
		l.preCache = pre
	}
	return out.AddRowVector(l.B)
}

// Backward returns dL/dX, accumulating dW, daₛ, daₜ, db. See the package
// tests for the finite-difference verification of this derivation.
func (l *GATConv) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.xCache == nil {
		panic("nn: GATConv.Backward before Forward(train=true)")
	}
	st := l.struct_
	n := dOut.Rows
	z := l.zCache
	dz := mat.New(n, l.OutDim)
	ds := make([]float64, n)
	dt := make([]float64, n)

	for i := 0; i < n; i++ {
		lo, hi := st.RowPtr[i], st.RowPtr[i+1]
		dyi := dOut.Row(i)

		// dα_ij = dy_i · z_j, and softmax backward needs the row dot
		// Σ_k α_ik dα_ik.
		rowDot := 0.0
		dAlpha := make([]float64, hi-lo)
		for p := lo; p < hi; p++ {
			zj := z.Row(st.ColIdx[p])
			d := 0.0
			for k, v := range dyi {
				d += v * zj[k]
			}
			dAlpha[p-lo] = d
			rowDot += l.alphaCache[p] * d
		}
		for p := lo; p < hi; p++ {
			j := st.ColIdx[p]
			a := l.alphaCache[p]
			// Output term: dz_j += α_ij dy_i.
			dzj := dz.Row(j)
			for k, v := range dyi {
				dzj[k] += a * v
			}
			// Softmax + LeakyReLU backward to the logit e_ij.
			de := a * (dAlpha[p-lo] - rowDot)
			if l.preCache[p] < 0 {
				de *= l.NegSlope
			}
			ds[i] += de
			dt[j] += de
		}
	}

	// Attention-vector gradients and their contribution to dz.
	for i := 0; i < n; i++ {
		zi := z.Row(i)
		dzi := dz.Row(i)
		for k := range l.ASrc {
			l.dASrc[k] += ds[i] * zi[k]
			l.dADst[k] += dt[i] * zi[k]
			dzi[k] += ds[i]*l.ASrc[k] + dt[i]*l.ADst[k]
		}
	}
	for j, v := range dOut.ColSums() {
		l.dbAcc[j] += v
	}
	l.dW.AddInPlace(mat.MatMulTransA(l.xCache, dz))
	return mat.MatMulTransB(dz, l.W)
}

// Params exposes W, aₛ, aₜ and b.
func (l *GATConv) Params() []Param {
	return []Param{
		{Name: "W", W: l.W, Grad: l.dW},
		{Name: "aSrc", W: mat.FromSlice(1, l.OutDim, l.ASrc), Grad: mat.FromSlice(1, l.OutDim, l.dASrc)},
		{Name: "aDst", W: mat.FromSlice(1, l.OutDim, l.ADst), Grad: mat.FromSlice(1, l.OutDim, l.dADst)},
		{Name: "b", W: mat.FromSlice(1, l.OutDim, l.B), Grad: mat.FromSlice(1, l.OutDim, l.dbAcc)},
	}
}

// NumParams returns InDim·OutDim + 3·OutDim.
func (l *GATConv) NumParams() int { return l.InDim*l.OutDim + 3*l.OutDim }

// MultiHeadGAT concatenates H independent GAT heads (the standard
// multi-head attention of Veličković et al. for hidden layers). OutDim is
// the total width; it must be divisible by the head count.
type MultiHeadGAT struct {
	InDim, OutDim int
	Heads         []*GATConv
}

// NewMultiHeadGAT builds heads GAT heads of width outDim/heads each over
// the shared attention structure st.
func NewMultiHeadGAT(rng *rand.Rand, inDim, outDim, heads int, st *graph.NormAdjacency) *MultiHeadGAT {
	if heads < 1 || outDim%heads != 0 {
		panic(fmt.Sprintf("nn: MultiHeadGAT outDim %d not divisible by heads %d", outDim, heads))
	}
	m := &MultiHeadGAT{InDim: inDim, OutDim: outDim}
	for h := 0; h < heads; h++ {
		m.Heads = append(m.Heads, NewGATConv(rng, inDim, outDim/heads, st))
	}
	return m
}

// Forward concatenates the head outputs.
func (m *MultiHeadGAT) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	outs := make([]*mat.Matrix, len(m.Heads))
	for h, head := range m.Heads {
		outs[h] = head.Forward(x, train)
	}
	return mat.HConcat(outs...)
}

// Backward splits the output gradient per head and sums the input
// gradients.
func (m *MultiHeadGAT) Backward(dOut *mat.Matrix) *mat.Matrix {
	width := m.OutDim / len(m.Heads)
	var dx *mat.Matrix
	for h, head := range m.Heads {
		d := head.Backward(dOut.SliceCols(h*width, (h+1)*width))
		if dx == nil {
			dx = d
		} else {
			dx.AddInPlace(d)
		}
	}
	return dx
}

// Params concatenates every head's parameters.
func (m *MultiHeadGAT) Params() []Param {
	var ps []Param
	for _, head := range m.Heads {
		ps = append(ps, head.Params()...)
	}
	return ps
}

// NumParams sums the heads.
func (m *MultiHeadGAT) NumParams() int {
	n := 0
	for _, head := range m.Heads {
		n += head.NumParams()
	}
	return n
}
