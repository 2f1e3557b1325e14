package main

import (
	"fmt"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/nn"
	"gnnvault/internal/substitute"
)

// deploySeed fixes every trained weight, and with them the int8
// calibration gate: the request-stream seed never reaches training.
const deploySeed = 1

// model is one trained backbone + rectifier pair with the labels the
// training-time nn path gives it. Those reference labels share no code
// with exec plans, tiling, precision tiers, shards or subgraphs.
type model struct {
	ID  string // "dataset/design", the vault id requests carry
	BB  *core.Backbone
	Rec *core.Rectifier
	Ref []int
	// RectAcc and BackboneAcc are test accuracies of the rectified and
	// the backbone-only predictions.
	RectAcc, BackboneAcc float64
}

// fixture is the fixed deployment a workload serves. It does not depend
// on the stream seed.
type fixture struct {
	Name      string
	DS        *datasets.Dataset
	Models    []*model
	GenerateS float64
	TrainS    float64
}

func buildFixture(name string) (*fixture, error) {
	var (
		cfg     datasets.Config
		spec    core.ModelSpec
		kind    substitute.Kind
		epochs  int
		designs []core.RectifierDesign
	)
	switch name {
	case "pubmed20k":
		// PubMed at its real node count. 200 labels per class keep the
		// 3-class rectifier well away from the one-class collapse the
		// power-law sweeps fixture shows (see README).
		cfg = datasets.ConfigOf("pubmed")
		cfg.Name, cfg.Nodes, cfg.TrainPerClass = name, 20000, 200
		spec = core.ModelSpec{Name: "bench", BackboneHidden: []int{64, 32}, RectifierHidden: []int{32, 16}}
		kind, epochs = substitute.KindRandom, 30
		designs = []core.RectifierDesign{core.Series}
	case "cora3":
		cfg = datasets.ConfigOf("cora")
		cfg.Name = "cora"
		spec = core.M1()
		kind, epochs = substitute.KindKNN, 100
		designs = core.Designs
	default:
		return nil, fmt.Errorf("unknown fixture %q", name)
	}

	t0 := time.Now()
	ds := datasets.Generate(cfg)
	fx := &fixture{Name: name, DS: ds, GenerateS: time.Since(t0).Seconds()}

	t0 = time.Now()
	train := core.TrainConfig{Epochs: epochs, LR: 0.01, WeightDecay: 5e-4, Seed: deploySeed}
	sub := substitute.Build(kind, ds.X, 2, ds.Graph.NumUndirectedEdges(), deploySeed)
	bb := core.TrainBackbone(ds, spec, kind, sub, train)
	bbAcc := bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	for _, d := range designs {
		rec := core.TrainRectifier(ds, bb, d, train)
		m := &model{ID: cfg.Name + "/" + string(d), BB: bb, Rec: rec, BackboneAcc: bbAcc}
		m.Ref, m.RectAcc = referenceLabels(ds, bb, rec)
		fx.Models = append(fx.Models, m)
	}
	fx.TrainS = time.Since(t0).Seconds()

	for _, m := range fx.Models {
		if err := checkNotVacuous(m, ds.NumClasses); err != nil {
			return nil, fmt.Errorf("fixture %s: %w", name, err)
		}
	}
	return fx, nil
}

// referenceLabels runs the training-time forward pass: the row-argmax of
// Rectifier.Forward over the required rows of Backbone.Embeddings.
func referenceLabels(ds *datasets.Dataset, bb *core.Backbone, rec *core.Rectifier) ([]int, float64) {
	all := bb.Embeddings(ds.X)
	need := rec.RequiredEmbeddings()
	embs := all[:0:0]
	for _, i := range need {
		embs = append(embs, all[i])
	}
	logits := rec.Forward(embs, false)
	return logits.ArgmaxRows(), nn.Accuracy(logits, ds.Labels, ds.TestMask)
}

// checkNotVacuous refuses a fixture whose reference labels a constant
// answer would match: one class swallowing the graph, a class nobody is
// assigned to, or a rectifier that adds nothing over its backbone.
func checkNotVacuous(m *model, classes int) error {
	counts := make([]int, classes)
	for _, l := range m.Ref {
		counts[l]++
	}
	n := float64(len(m.Ref))
	for c, k := range counts {
		share := float64(k) / n
		if share > 0.6 {
			return fmt.Errorf("%s: class %d holds %.3f of the reference labels (limit 0.6) %v", m.ID, c, share, counts)
		}
		if share < 0.05 {
			return fmt.Errorf("%s: class %d holds %.3f of the reference labels (floor 0.05) %v", m.ID, c, share, counts)
		}
	}
	if m.RectAcc < m.BackboneAcc+0.1 {
		return fmt.Errorf("%s: rectified accuracy %.3f is not 0.1 above backbone-only %.3f", m.ID, m.RectAcc, m.BackboneAcc)
	}
	return nil
}

func (fx *fixture) model(id string) *model {
	for _, m := range fx.Models {
		if m.ID == id {
			return m
		}
	}
	return nil
}
