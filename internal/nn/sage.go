package nn

import (
	"fmt"
	"math/rand"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// SAGEConv is a GraphSAGE layer with the mean aggregator (Hamilton et al.):
//
//	Y = X·W_self + (D⁻¹A·X)·W_nbr + b
//
// It is one of the two additional architectures the paper names as future
// work. Unlike GCN's symmetric Â, the mean operator D⁻¹A is not its own
// transpose, so the layer carries an explicit transpose for backward.
type SAGEConv struct {
	InDim, OutDim int
	WSelf, WNbr   *mat.Matrix
	B             []float64

	dwSelf, dwNbr *mat.Matrix
	dbAcc         []float64

	agg, aggT *graph.NormAdjacency

	xCache  *mat.Matrix
	mxCache *mat.Matrix // D⁻¹A·X
}

// NewSAGEConv constructs a mean-aggregator GraphSAGE layer over the mean
// operator agg (graph.MeanAdjacency) and its transpose aggT, which only
// Backward reads. Both are shared, not copied: the layers of one model are
// handed the same pair, as GCN layers are handed one Â.
func NewSAGEConv(rng *rand.Rand, inDim, outDim int, agg, aggT *graph.NormAdjacency) *SAGEConv {
	if agg == nil || aggT == nil {
		panic("nn: SAGEConv requires a mean operator and its transpose")
	}
	return &SAGEConv{
		InDim:  inDim,
		OutDim: outDim,
		WSelf:  mat.Glorot(rng, inDim, outDim),
		WNbr:   mat.Glorot(rng, inDim, outDim),
		B:      make([]float64, outDim),
		dwSelf: mat.New(inDim, outDim),
		dwNbr:  mat.New(inDim, outDim),
		dbAcc:  make([]float64, outDim),
		agg:    agg,
		aggT:   aggT,
	}
}

// Mean returns the layer's mean-aggregation operator D⁻¹A.
func (l *SAGEConv) Mean() *graph.NormAdjacency { return l.agg }

// Forward computes X·W_self + (D⁻¹A·X)·W_nbr + b.
func (l *SAGEConv) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: SAGEConv input dim %d, want %d", x.Cols, l.InDim))
	}
	mx := l.agg.MulDense(x)
	self := mat.MatMul(x, l.WSelf)
	nbr := mat.MatMul(mx, l.WNbr)
	if train {
		l.xCache = x
		l.mxCache = mx
	}
	return self.AddInPlace(nbr).AddRowVector(l.B)
}

// Backward returns dL/dX and accumulates the three parameter gradients:
//
//	dW_self = Xᵀ·dY
//	dW_nbr  = (D⁻¹A·X)ᵀ·dY
//	dX      = dY·W_selfᵀ + (D⁻¹A)ᵀ·(dY·W_nbrᵀ)
//	db      = column sums of dY
func (l *SAGEConv) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.xCache == nil {
		panic("nn: SAGEConv.Backward before Forward(train=true)")
	}
	l.dwSelf.AddInPlace(mat.MatMulTransA(l.xCache, dOut))
	l.dwNbr.AddInPlace(mat.MatMulTransA(l.mxCache, dOut))
	for j, s := range dOut.ColSums() {
		l.dbAcc[j] += s
	}
	dx := mat.MatMulTransB(dOut, l.WSelf)
	dxNbr := l.aggT.MulDense(mat.MatMulTransB(dOut, l.WNbr))
	return dx.AddInPlace(dxNbr)
}

// Params exposes W_self, W_nbr and b.
func (l *SAGEConv) Params() []Param {
	return []Param{
		{Name: "Wself", W: l.WSelf, Grad: l.dwSelf},
		{Name: "Wnbr", W: l.WNbr, Grad: l.dwNbr},
		{Name: "b", W: mat.FromSlice(1, l.OutDim, l.B), Grad: mat.FromSlice(1, l.OutDim, l.dbAcc)},
	}
}

// NumParams returns 2·InDim·OutDim + OutDim.
func (l *SAGEConv) NumParams() int { return 2*l.InDim*l.OutDim + l.OutDim }
