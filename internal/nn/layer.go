// Package nn implements the neural-network substrate GNNVault trains:
// GCN, GraphSAGE, GAT and dense layers with hand-derived backward passes,
// ReLU and dropout, masked softmax cross-entropy for semi-supervised node
// classification, and the Adam optimiser.
//
// There is no tape autodiff: each layer caches what its backward pass needs
// during Forward and returns the input gradient from Backward.
//
// The package holds training and the reference forward, nothing else.
// Deployed inference never runs these layers: internal/core compiles them
// into internal/exec op programs (reading the weights, and the operators
// through GCNConv.Adjacency, SAGEConv.Mean and GATConv.Structure), and the
// tests hold every planned answer to the Forward defined here.
package nn

import (
	"fmt"
	"math/rand"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// Layer is a differentiable module. Forward consumes the previous
// activation; Backward consumes dL/dOutput and returns dL/dInput,
// accumulating parameter gradients internally.
type Layer interface {
	Forward(x *mat.Matrix, train bool) *mat.Matrix
	Backward(dOut *mat.Matrix) *mat.Matrix
	// Params returns the layer's parameter/gradient pairs, empty for
	// stateless layers.
	Params() []Param
	// NumParams returns the scalar parameter count (θ in the paper's
	// tables).
	NumParams() int
}

// Param couples a parameter matrix with its gradient accumulator.
type Param struct {
	Name    string
	W, Grad *mat.Matrix
}

// GCNConv is one graph-convolution layer: H' = Â·(H·W) + b, with Â fixed at
// construction (Eq. 1 of the paper). The adjacency can be swapped with
// SetAdjacency, which is how a trained backbone is re-used with a different
// substitute graph in ablations.
type GCNConv struct {
	InDim, OutDim int
	W             *mat.Matrix
	B             []float64
	dwAcc         *mat.Matrix
	dbAcc         []float64
	adj           *graph.NormAdjacency

	xCache  *mat.Matrix // input H
	xwCache *mat.Matrix // H·W before propagation
}

// NewGCNConv constructs a GCN layer with Glorot-initialised weights and a
// zero bias over the given normalised adjacency.
func NewGCNConv(rng *rand.Rand, inDim, outDim int, adj *graph.NormAdjacency) *GCNConv {
	if adj == nil {
		panic("nn: GCNConv requires a normalised adjacency")
	}
	return &GCNConv{
		InDim:  inDim,
		OutDim: outDim,
		W:      mat.Glorot(rng, inDim, outDim),
		B:      make([]float64, outDim),
		dwAcc:  mat.New(inDim, outDim),
		dbAcc:  make([]float64, outDim),
		adj:    adj,
	}
}

// SetAdjacency replaces the propagation operator (the layer parameters are
// untouched).
func (l *GCNConv) SetAdjacency(adj *graph.NormAdjacency) { l.adj = adj }

// Adjacency returns the current propagation operator.
func (l *GCNConv) Adjacency() *graph.NormAdjacency { return l.adj }

// Forward computes Â(XW) + b.
func (l *GCNConv) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GCNConv input dim %d, want %d", x.Cols, l.InDim))
	}
	xw := mat.MatMul(x, l.W)
	if train {
		l.xCache = x
		l.xwCache = xw
	}
	return l.adj.MulDense(xw).AddRowVector(l.B)
}

// Backward receives dL/dOut and returns dL/dX.
//
// With Y = Â(XW) + b and symmetric Â:
//
//	dXW = Âᵀ·dY = Â·dY
//	dW  = Xᵀ·dXW
//	dX  = dXW·Wᵀ
//	db  = column sums of dY
func (l *GCNConv) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.xCache == nil {
		panic("nn: GCNConv.Backward before Forward(train=true)")
	}
	dxw := l.adj.MulDense(dOut) // Â symmetric ⇒ Âᵀ = Â
	l.dwAcc.AddInPlace(mat.MatMulTransA(l.xCache, dxw))
	for j, s := range dOut.ColSums() {
		l.dbAcc[j] += s
	}
	return mat.MatMulTransB(dxw, l.W)
}

// Params exposes W and b (as a 1×OutDim matrix view) for the optimiser.
func (l *GCNConv) Params() []Param {
	return []Param{
		{Name: "W", W: l.W, Grad: l.dwAcc},
		{Name: "b", W: mat.FromSlice(1, l.OutDim, l.B), Grad: mat.FromSlice(1, l.OutDim, l.dbAcc)},
	}
}

// NumParams returns InDim·OutDim + OutDim.
func (l *GCNConv) NumParams() int { return l.InDim*l.OutDim + l.OutDim }

// Dense is a fully-connected layer Y = XW + b, used for the paper's DNN
// (MLP) backbone baseline.
type Dense struct {
	InDim, OutDim int
	W             *mat.Matrix
	B             []float64
	dwAcc         *mat.Matrix
	dbAcc         []float64

	xCache *mat.Matrix
}

// NewDense constructs a Glorot-initialised dense layer.
func NewDense(rng *rand.Rand, inDim, outDim int) *Dense {
	return &Dense{
		InDim:  inDim,
		OutDim: outDim,
		W:      mat.Glorot(rng, inDim, outDim),
		B:      make([]float64, outDim),
		dwAcc:  mat.New(inDim, outDim),
		dbAcc:  make([]float64, outDim),
	}
}

// Forward computes XW + b.
func (l *Dense) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if x.Cols != l.InDim {
		panic(fmt.Sprintf("nn: Dense input dim %d, want %d", x.Cols, l.InDim))
	}
	if train {
		l.xCache = x
	}
	return mat.MatMul(x, l.W).AddRowVector(l.B)
}

// Backward returns dL/dX and accumulates dW, db.
func (l *Dense) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.xCache == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	l.dwAcc.AddInPlace(mat.MatMulTransA(l.xCache, dOut))
	for j, s := range dOut.ColSums() {
		l.dbAcc[j] += s
	}
	return mat.MatMulTransB(dOut, l.W)
}

// Params exposes W and b for the optimiser.
func (l *Dense) Params() []Param {
	return []Param{
		{Name: "W", W: l.W, Grad: l.dwAcc},
		{Name: "b", W: mat.FromSlice(1, l.OutDim, l.B), Grad: mat.FromSlice(1, l.OutDim, l.dbAcc)},
	}
}

// NumParams returns InDim·OutDim + OutDim.
func (l *Dense) NumParams() int { return l.InDim*l.OutDim + l.OutDim }

// ReLU is the element-wise rectifier.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative entries.
func (l *ReLU) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	out := mat.New(x.Rows, x.Cols)
	if train {
		l.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			if train {
				l.mask[i] = true
			}
		}
	}
	return out
}

// Backward zeroes gradients where the forward input was non-positive.
func (l *ReLU) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	dx := mat.New(dOut.Rows, dOut.Cols)
	for i, v := range dOut.Data {
		if l.mask[i] {
			dx.Data[i] = v
		}
	}
	return dx
}

// Params returns nil; ReLU is stateless.
func (l *ReLU) Params() []Param { return nil }

// NumParams returns 0.
func (l *ReLU) NumParams() int { return 0 }

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout). Inference is identity.
type Dropout struct {
	P   float64
	Rng *rand.Rand

	scale []float64
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0,1)", p))
	}
	return &Dropout{P: p, Rng: rng}
}

// Forward applies inverted dropout when train is true.
func (l *Dropout) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || l.P == 0 {
		l.scale = nil
		return x
	}
	out := mat.New(x.Rows, x.Cols)
	l.scale = make([]float64, len(x.Data))
	keep := 1 - l.P
	inv := 1 / keep
	for i, v := range x.Data {
		if l.Rng.Float64() < keep {
			l.scale[i] = inv
			out.Data[i] = v * inv
		}
	}
	return out
}

// Backward propagates gradients through the surviving units only.
func (l *Dropout) Backward(dOut *mat.Matrix) *mat.Matrix {
	if l.scale == nil { // inference-mode or p=0 forward
		return dOut
	}
	dx := mat.New(dOut.Rows, dOut.Cols)
	for i, v := range dOut.Data {
		dx.Data[i] = v * l.scale[i]
	}
	return dx
}

// Params returns nil; dropout is stateless.
func (l *Dropout) Params() []Param { return nil }

// NumParams returns 0.
func (l *Dropout) NumParams() int { return 0 }
