package core

import (
	"fmt"
	"math/rand"

	"gnnvault/internal/datasets"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
	"gnnvault/internal/substitute"
)

// Backbone is the public half of GNNVault: a GCN over a substitute graph
// (or an MLP when Kind is KindDNN) trained only on public data. It is
// deployed in the untrusted world, so everything it computes — parameters
// and all intermediate embeddings — is attacker-observable.
type Backbone struct {
	Spec  ModelSpec
	Kind  substitute.Kind
	Model *nn.Model
	// SubGraph is the substitute graph (nil for the DNN backbone). It is
	// public by construction: derived from node features only.
	SubGraph *graph.Graph
	// adj is the operator the convs aggregate over (convOperator of
	// Spec.Conv on SubGraph); nil for the DNN backbone.
	adj *graph.NormAdjacency
	// FeatureDim is the input feature width the model was built for.
	FeatureDim int
	// BlockDims are the widths of the per-block embeddings, hidden dims
	// followed by the class count.
	BlockDims []int
	// convIdx[i] is the index in Model.Layers of block i's conv layer.
	convIdx []int
}

// blockOutputs selects the per-block embeddings from a per-layer list:
// the post-activation output of each hidden block and the final logits.
// These are the tensors that cross into the enclave. The reference forward
// (Embeddings, over ForwardCollect's activations) and the compiler
// (lowerInto, over program value ids) both select through it, so the
// block-selection rule lives in one place.
func blockOutputs[T any](b *Backbone, acts []T) []T {
	out := make([]T, 0, len(b.convIdx))
	for i, ci := range b.convIdx {
		idx := ci
		if i < len(b.convIdx)-1 {
			idx = ci + 1 // the ReLU following the conv
		}
		out = append(out, acts[idx])
	}
	return out
}

// Embeddings runs the backbone in inference mode and returns the per-block
// node embeddings (hidden activations plus final logits). This is exactly
// the observation surface of a link-stealing attacker in the untrusted
// world, and the payload GNNVault ships to the rectifier.
func (b *Backbone) Embeddings(x *mat.Matrix) []*mat.Matrix {
	_, acts := b.Model.ForwardCollect(x, false)
	return blockOutputs(b, acts)
}

// Logits runs the backbone and returns its raw (low-accuracy) predictions.
func (b *Backbone) Logits(x *mat.Matrix) *mat.Matrix {
	return b.Model.Forward(x, false)
}

// NumParams returns θ_bb.
func (b *Backbone) NumParams() int { return b.Model.NumParams() }

// convOperator builds, once per model, the operator the convs of the
// requested architecture aggregate over g with — GCN's normalised Â,
// GraphSAGE's neighbour mean D⁻¹A, GAT's self-loop structure — and the
// constructor of a conv layer over it. The operator is what the compiled
// programs reference and therefore what deployment charges; the transpose
// SAGE's backward pass needs is built beside it, once, as a training-side
// cache that is not enclave state.
func convOperator(kind ConvKind, g *graph.Graph) (*graph.NormAdjacency, func(rng *rand.Rand, inDim, outDim int) nn.Layer) {
	switch kind {
	case ConvGCN, "":
		op := graph.Normalize(g)
		return op, func(rng *rand.Rand, in, out int) nn.Layer { return nn.NewGCNConv(rng, in, out, op) }
	case ConvSAGE:
		op := graph.MeanAdjacency(g)
		opT := op.Transpose()
		return op, func(rng *rand.Rand, in, out int) nn.Layer { return nn.NewSAGEConv(rng, in, out, op, opT) }
	case ConvGAT:
		op := graph.SelfLoopAdjacency(g)
		return op, func(rng *rand.Rand, in, out int) nn.Layer { return nn.NewGATConv(rng, in, out, op) }
	default:
		panic(fmt.Sprintf("core: unknown conv kind %q", kind))
	}
}

// buildBackboneModel assembles the layer stack. For GNN backbones each
// block is a graph conv (+ReLU+Dropout except the last) over the spec's
// convOperator on g, which is returned as the last result; the DNN
// backbone (nil g) uses Dense layers (an MLP on raw features, Table III's
// first column) and has no operator.
func buildBackboneModel(rng *rand.Rand, spec ModelSpec, inDim, classes int, g *graph.Graph) (*nn.Model, []int, []int, *graph.NormAdjacency) {
	dims := append(append([]int{}, spec.BackboneHidden...), classes)
	var layers []nn.Layer
	var convIdx []int
	var adj *graph.NormAdjacency
	var newConv func(rng *rand.Rand, inDim, outDim int) nn.Layer
	if g != nil {
		adj, newConv = convOperator(spec.Conv, g)
	}
	prev := inDim
	for i, d := range dims {
		convIdx = append(convIdx, len(layers))
		if g != nil {
			layers = append(layers, newConv(rng, prev, d))
		} else {
			layers = append(layers, nn.NewDense(rng, prev, d))
		}
		if i < len(dims)-1 {
			layers = append(layers, nn.NewReLU())
			if spec.Dropout > 0 {
				layers = append(layers, nn.NewDropout(rng, spec.Dropout))
			}
		}
		prev = d
	}
	return nn.NewModel(layers...), dims, convIdx, adj
}

// TrainBackbone trains the public backbone of GNNVault on ds using the
// given substitute graph (nil = DNN backbone), never touching the private
// adjacency. Returns the trained backbone; accuracy on ds.TestMask is the
// paper's p_bb.
func TrainBackbone(ds *datasets.Dataset, spec ModelSpec, kind substitute.Kind, sub *graph.Graph, cfg TrainConfig) *Backbone {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, dims, convIdx, adj := buildBackboneModel(rng, spec, ds.X.Cols, ds.NumClasses, sub)
	trainModel(model, ds.X, ds.Labels, ds.TrainMask, cfg)
	return &Backbone{
		Spec: spec, Kind: kind, Model: model,
		SubGraph: sub, adj: adj, FeatureDim: ds.X.Cols,
		BlockDims: dims, convIdx: convIdx,
	}
}

// TrainOriginal trains the paper's reference model: the same architecture
// as the GNN backbone but message-passing over the real private adjacency.
// Its test accuracy is p_org, and its embeddings are the M_org observation
// surface of Table IV.
func TrainOriginal(ds *datasets.Dataset, spec ModelSpec, cfg TrainConfig) *Backbone {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, dims, convIdx, adj := buildBackboneModel(rng, spec, ds.X.Cols, ds.NumClasses, ds.Graph)
	trainModel(model, ds.X, ds.Labels, ds.TrainMask, cfg)
	return &Backbone{
		Spec: spec, Kind: "original", Model: model,
		SubGraph: ds.Graph, adj: adj, FeatureDim: ds.X.Cols,
		BlockDims: dims, convIdx: convIdx,
	}
}

// trainModel runs full-batch Adam with masked cross-entropy.
func trainModel(model *nn.Model, x *mat.Matrix, labels []int, mask []int, cfg TrainConfig) {
	opt := nn.NewAdam(cfg.LR, cfg.WeightDecay)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		out := model.Forward(x, true)
		_, dOut := nn.MaskedCrossEntropy(out, labels, mask)
		model.Backward(dOut)
		opt.Step(model.Params())
	}
}

// TestAccuracy evaluates a backbone-style model on a node mask.
func (b *Backbone) TestAccuracy(x *mat.Matrix, labels, mask []int) float64 {
	return nn.Accuracy(b.Logits(x), labels, mask)
}
