// Package core implements GNNVault, the paper's contribution: a
// partition-before-training deployment for GNN inference where a public
// backbone trained on a substitute graph runs in the untrusted world and a
// small private rectifier holding the real adjacency runs inside a TEE.
//
// The pipeline mirrors the paper's Fig. 2:
//
//  1. build a substitute graph from public node features (package
//     substitute),
//  2. train the public backbone on the substitute graph (TrainBackbone),
//  3. freeze the backbone and train the rectifier with the real adjacency
//     (TrainRectifier),
//  4. deploy: backbone + substitute graph in the normal world, rectifier +
//     real COO adjacency sealed inside the enclave (Deploy → Vault).
package core

import "fmt"

// RectifierDesign selects the backbone→rectifier communication scheme of
// the paper's Fig. 3.
type RectifierDesign string

// The three rectifier designs evaluated in Table II and Fig. 6.
const (
	// Parallel rectifies the node embeddings after every backbone
	// message-passing layer: rectifier layer k consumes the concatenation
	// of the previous rectifier output and backbone layer k's embedding.
	Parallel RectifierDesign = "parallel"
	// Cascaded runs the backbone to completion first and feeds the
	// concatenation of all backbone layer outputs to the rectifier.
	Cascaded RectifierDesign = "cascaded"
	// Series feeds only the backbone's final hidden embedding to the
	// rectifier — the smallest transfer and enclave footprint.
	Series RectifierDesign = "series"
)

// Designs lists the rectifier designs in the paper's presentation order.
var Designs = []RectifierDesign{Parallel, Series, Cascaded}

// ConvKind selects the graph-convolution architecture used by both the
// backbone and the rectifier. GCN is the paper's evaluated architecture;
// GraphSAGE and GAT implement its stated future work.
type ConvKind string

// The supported graph-convolution architectures.
const (
	ConvGCN  ConvKind = "gcn"
	ConvSAGE ConvKind = "sage"
	ConvGAT  ConvKind = "gat"
)

// ConvKinds lists the supported architectures.
var ConvKinds = []ConvKind{ConvGCN, ConvSAGE, ConvGAT}

// ModelSpec fixes the channel widths of a GNNVault model family. Hidden
// dims exclude the class count C, which is appended per dataset.
type ModelSpec struct {
	Name string
	// Conv is the graph-convolution architecture (default ConvGCN).
	Conv ConvKind
	// BackboneHidden are the backbone GCN output widths before the final
	// C-wide classifier layer, e.g. (128, 32) for M1's (128, 32, C).
	BackboneHidden []int
	// RectifierHidden are the rectifier widths before its C-wide output
	// layer.
	RectifierHidden []int
	// Dropout applied between layers during training.
	Dropout float64
}

// The paper's three model families (Sec. V-A "Models"). M1 targets the
// small citation graphs, M2 the many-class CoraFull, M3 is the larger and
// deeper design used for the Amazon graphs.
func M1() ModelSpec {
	return ModelSpec{Name: "M1", BackboneHidden: []int{128, 32}, RectifierHidden: []int{128, 32}, Dropout: 0.5}
}

// M2 widens the channels to 256 for datasets with a large label space.
func M2() ModelSpec {
	return ModelSpec{Name: "M2", BackboneHidden: []int{256, 64}, RectifierHidden: []int{160, 64}, Dropout: 0.5}
}

// M3 is the deeper five-layer backbone with a three-layer rectifier.
func M3() ModelSpec {
	return ModelSpec{Name: "M3", BackboneHidden: []int{256, 64, 32, 16}, RectifierHidden: []int{64, 32}, Dropout: 0.5}
}

// specs names the model families. Names that arrive from outside the
// program (a bundle manifest) are looked up here and reported when
// unknown; SpecByName is the panicking form for names the program wrote.
var specs = map[string]func() ModelSpec{"M1": M1, "M2": M2, "M3": M3}

// SpecByName returns the named model spec (M1, M2 or M3); an unknown
// name is a programmer error and panics.
func SpecByName(name string) ModelSpec {
	spec, ok := specs[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown model spec %q", name))
	}
	return spec()
}

// SpecForDataset returns the paper's model assignment: M1 for the citation
// graphs, M2 for CoraFull, M3 for the Amazon graphs.
func SpecForDataset(dataset string) ModelSpec {
	switch dataset {
	case "cora", "citeseer", "pubmed":
		return M1()
	case "corafull":
		return M2()
	case "computer", "photo":
		return M3()
	default:
		return M1()
	}
}

// TrainConfig holds the optimisation hyper-parameters shared by backbone,
// rectifier, and original-model training.
type TrainConfig struct {
	Epochs      int
	LR          float64
	WeightDecay float64
	Seed        int64
	// Quiet suppresses per-epoch logging (always quiet in this build;
	// kept for CLI verbosity control).
	Quiet bool
}

// DefaultTrainConfig is the full-batch Adam recipe used by all experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 200, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
}
