package core

import (
	"fmt"
	"math/rand"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
)

// Rectifier is the private half of GNNVault: a small GCN over the *real*
// adjacency that recalibrates the backbone's embeddings (paper Sec. IV-D).
// It lives inside the enclave; its parameters and every intermediate
// activation stay sealed.
//
// The three designs differ only in how backbone embeddings are wired in:
//
//	Parallel: layer k input = [rectifier layer k-1 output ‖ backbone block k output]
//	Cascaded: layer 0 input = [all backbone block outputs ‖ … ]
//	Series:   layer 0 input = backbone's final hidden embedding
type Rectifier struct {
	Design RectifierDesign
	// BackboneDims are the block widths of the backbone this rectifier was
	// built against (hidden dims + C).
	BackboneDims []int
	// Dims are the rectifier's own output widths (hidden + C).
	Dims []int

	// Conv is the convolution architecture (default ConvGCN).
	Conv ConvKind

	// adj is the training operator (Adjacency); deployment never reads it.
	adj   *graph.NormAdjacency
	convs []nn.Layer
	relus []*nn.ReLU
}

// NewRectifierConv builds an untrained rectifier of the given design and
// convolution architecture (GCN, GraphSAGE, or GAT) against a backbone
// with block widths backboneDims, over the real private graph.
func NewRectifierConv(rng *rand.Rand, design RectifierDesign, conv ConvKind, backboneDims []int, hidden []int, classes int, private *graph.Graph) *Rectifier {
	return newRectifier(rng, design, conv, backboneDims, hidden, classes, convOperator(conv, private))
}

// newRectifier is NewRectifierConv over an already derived operator op,
// which Import builds its rectifier over.
func newRectifier(rng *rand.Rand, design RectifierDesign, conv ConvKind, backboneDims []int, hidden []int, classes int, op *graph.NormAdjacency) *Rectifier {
	if len(backboneDims) == 0 {
		panic("core: rectifier needs backbone block dims")
	}
	dims := append(append([]int{}, hidden...), classes)
	newConv := convLayers(conv, op)
	r := &Rectifier{
		Design:       design,
		Conv:         conv,
		BackboneDims: append([]int{}, backboneDims...),
		Dims:         dims,
		adj:          op,
	}
	for k := 0; k < len(dims); k++ {
		r.convs = append(r.convs, newConv(rng, r.inDim(k), dims[k]))
		if k < len(dims)-1 {
			r.relus = append(r.relus, nn.NewReLU())
		}
	}
	return r
}

// inDim returns rectifier layer k's input width under the design wiring.
func (r *Rectifier) inDim(k int) int {
	switch r.Design {
	case Parallel:
		used := r.usedBackboneDims()
		if k == 0 {
			return used[0]
		}
		return r.Dims[k-1] + used[k]
	case Cascaded:
		if k == 0 {
			total := 0
			for _, d := range r.BackboneDims {
				total += d
			}
			return total
		}
		return r.Dims[k-1]
	case Series:
		if k == 0 {
			return r.seriesInputDim()
		}
		return r.Dims[k-1]
	default:
		panic(fmt.Sprintf("core: unknown rectifier design %q", r.Design))
	}
}

// usedBackboneDims returns the backbone block widths the parallel design
// consumes: the last len(Dims) blocks, so unequal depths (M3) align the
// rectifier with the tail of the backbone.
func (r *Rectifier) usedBackboneDims() []int {
	off := len(r.BackboneDims) - len(r.Dims)
	if off < 0 {
		panic(fmt.Sprintf("core: parallel rectifier deeper (%d) than backbone (%d)", len(r.Dims), len(r.BackboneDims)))
	}
	return r.BackboneDims[off:]
}

// seriesInputDim is the backbone's final hidden width (or its logits width
// for a single-layer backbone).
func (r *Rectifier) seriesInputDim() int {
	if len(r.BackboneDims) >= 2 {
		return r.BackboneDims[len(r.BackboneDims)-2]
	}
	return r.BackboneDims[len(r.BackboneDims)-1]
}

// RequiredEmbeddings lists which backbone block outputs (by index) must be
// transferred into the enclave for this design — the transfer payload of
// Fig. 6.
func (r *Rectifier) RequiredEmbeddings() []int {
	switch r.Design {
	case Parallel:
		off := len(r.BackboneDims) - len(r.Dims)
		idx := make([]int, len(r.Dims))
		for k := range idx {
			idx[k] = off + k
		}
		return idx
	case Cascaded:
		idx := make([]int, len(r.BackboneDims))
		for k := range idx {
			idx[k] = k
		}
		return idx
	case Series:
		if len(r.BackboneDims) >= 2 {
			return []int{len(r.BackboneDims) - 2}
		}
		return []int{len(r.BackboneDims) - 1}
	default:
		panic(fmt.Sprintf("core: unknown rectifier design %q", r.Design))
	}
}

// assembleInput builds layer k's input from the transferred embeddings and
// the previous rectifier activation.
func (r *Rectifier) assembleInput(k int, prev *mat.Matrix, embs []*mat.Matrix) *mat.Matrix {
	switch r.Design {
	case Parallel:
		if k == 0 {
			return embs[0]
		}
		return mat.HConcat(prev, embs[k])
	case Cascaded:
		if k == 0 {
			return mat.HConcat(embs...)
		}
		return prev
	case Series:
		if k == 0 {
			return embs[0]
		}
		return prev
	default:
		panic(fmt.Sprintf("core: unknown rectifier design %q", r.Design))
	}
}

// Forward rectifies the transferred backbone embeddings into logits. embs
// must contain exactly the blocks listed by RequiredEmbeddings, in order.
func (r *Rectifier) Forward(embs []*mat.Matrix, train bool) *mat.Matrix {
	acts := r.forward(embs, train)
	return acts[len(acts)-1]
}

// Backward propagates dL/dLogits through the rectifier, accumulating
// parameter gradients. Gradients flowing toward the backbone embeddings
// are discarded: the backbone is frozen during rectifier training (paper
// Sec. IV-D) and the deployment channel is one-way anyway.
func (r *Rectifier) Backward(dOut *mat.Matrix) {
	d := dOut
	for k := len(r.convs) - 1; k >= 0; k-- {
		dIn := r.convs[k].Backward(d)
		if k == 0 {
			return
		}
		// Keep only the slice of the input gradient that flowed from the
		// previous rectifier layer.
		var dPrev *mat.Matrix
		switch r.Design {
		case Parallel:
			dPrev = dIn.SliceCols(0, r.Dims[k-1])
		default: // cascaded, series: layer k>0 input is exactly prev
			dPrev = dIn
		}
		d = r.relus[k-1].Backward(dPrev)
	}
}

// Params returns the rectifier parameters for the optimiser.
func (r *Rectifier) Params() []nn.Param {
	var ps []nn.Param
	for _, c := range r.convs {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// NumParams returns θ_rec.
func (r *Rectifier) NumParams() int {
	n := 0
	for _, c := range r.convs {
		n += c.NumParams()
	}
	return n
}

// Adjacency returns the training operator — convOperator over the graph
// the rectifier was built with — which training and the reference Forward
// read; a deployed vault computes over its own. Enclave-side use only.
func (r *Rectifier) Adjacency() *graph.NormAdjacency { return r.adj }

// MarshalParams serialises the rectifier parameters (the blob that gets
// sealed at deployment).
func (r *Rectifier) MarshalParams() []byte {
	m := nn.NewModel()
	for _, c := range r.convs {
		m.Layers = append(m.Layers, c)
	}
	return m.MarshalParams()
}

// UnmarshalParams restores parameters from MarshalParams output.
func (r *Rectifier) UnmarshalParams(data []byte) error {
	m := nn.NewModel()
	for _, c := range r.convs {
		m.Layers = append(m.Layers, c)
	}
	return m.UnmarshalParams(data)
}

// ActivationBytes returns the peak transient activation footprint of one
// inference pass over n nodes: the widest concatenated input plus the
// widest two consecutive activations (input to and output of one layer
// coexist).
func (r *Rectifier) ActivationBytes(n int) int64 {
	peak := 0
	for k := range r.convs {
		if w := r.inDim(k) + r.Dims[k]; w > peak {
			peak = w
		}
	}
	return int64(peak) * int64(n) * 8
}

// ParamBytes returns the parameter footprint in bytes.
func (r *Rectifier) ParamBytes() int64 { return int64(r.NumParams()) * 8 }

// ForwardCollect runs inference and returns every layer's activation
// (hidden post-ReLU outputs plus final logits). Enclave-internal analysis
// only — these never cross the boundary in a deployment.
func (r *Rectifier) ForwardCollect(embs []*mat.Matrix) []*mat.Matrix { return r.forward(embs, false) }

// forward is the one body behind Forward and ForwardCollect.
func (r *Rectifier) forward(embs []*mat.Matrix, train bool) []*mat.Matrix {
	want := len(r.RequiredEmbeddings())
	if len(embs) != want {
		panic(fmt.Sprintf("core: rectifier %s wants %d embeddings, got %d", r.Design, want, len(embs)))
	}
	var h *mat.Matrix
	acts := make([]*mat.Matrix, 0, len(r.convs))
	for k, conv := range r.convs {
		in := r.assembleInput(k, h, embs)
		z := conv.Forward(in, train)
		if k < len(r.convs)-1 {
			h = r.relus[k].Forward(z, train)
		} else {
			h = z
		}
		acts = append(acts, h)
	}
	return acts
}

// Identity returns the canonical encoding of the rectifier's code identity
// (design, conv kind, backbone dims, own dims): the enclave measurement
// input. Two rectifiers with the same architecture measure identically
// regardless of their trained weights.
func (r *Rectifier) Identity() []byte {
	s := fmt.Sprintf("gnnvault-rectifier-v1|%s|%s|%v|%v", r.Design, r.Conv, r.BackboneDims, r.Dims)
	return []byte(s)
}
