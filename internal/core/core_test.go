package core

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/nn"
	"gnnvault/internal/substitute"
)

// tinyDataset is a fast, well-separated task for unit tests.
func tinyDataset() *datasets.Dataset {
	return datasets.Generate(datasets.Config{
		Name: "tiny", Nodes: 120, FeatureDim: 32, Classes: 4,
		AvgDegree: 6, Homophily: 0.9,
		ProtoDensity: 0.15, FeatureSignal: 0.5, FeatureNoise: 0.03,
		TrainPerClass: 8, Seed: 1,
	})
}

// fastTrain is a shortened training recipe for tests.
func fastTrain() TrainConfig {
	return TrainConfig{Epochs: 60, LR: 0.02, WeightDecay: 5e-4, Seed: 3}
}

func tinySpec() ModelSpec {
	return ModelSpec{Name: "tiny", BackboneHidden: []int{16, 8}, RectifierHidden: []int{16, 8}, Dropout: 0}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"M1", "M2", "M3"} {
		if got := SpecByName(name); got.Name != name {
			t.Errorf("SpecByName(%q).Name = %q", name, got.Name)
		}
	}
}

func TestSpecByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown spec did not panic")
		}
	}()
	SpecByName("M9")
}

func TestSpecForDataset(t *testing.T) {
	cases := map[string]string{
		"cora": "M1", "citeseer": "M1", "pubmed": "M1",
		"corafull": "M2", "computer": "M3", "photo": "M3",
		"unknown": "M1",
	}
	for ds, want := range cases {
		if got := SpecForDataset(ds).Name; got != want {
			t.Errorf("SpecForDataset(%q) = %q, want %q", ds, got, want)
		}
	}
}

func TestBackboneParamCountsMatchPaperShape(t *testing.T) {
	// M1 on a Cora-shaped input must have θ_bb = d·128+128 + 128·32+32 + 32·C+C.
	ds := tinyDataset()
	bb := TrainBackbone(ds, M1(), substitute.KindKNN, substitute.KNN(ds.X, 2),
		TrainConfig{Epochs: 1, LR: 0.01, Seed: 1})
	d := ds.X.Cols
	c := ds.NumClasses
	want := (d*128 + 128) + (128*32 + 32) + (32*c + c)
	if bb.NumParams() != want {
		t.Fatalf("θ_bb = %d, want %d", bb.NumParams(), want)
	}
}

func TestTrainBackboneLearns(t *testing.T) {
	ds := tinyDataset()
	sub := substitute.KNN(ds.X, 2)
	bb := TrainBackbone(ds, tinySpec(), substitute.KindKNN, sub, fastTrain())
	acc := bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	if acc < 0.5 {
		t.Fatalf("backbone test accuracy = %v, want > 0.5 on separable data", acc)
	}
}

func TestTrainDNNBackbone(t *testing.T) {
	ds := tinyDataset()
	bb := TrainBackbone(ds, tinySpec(), substitute.KindDNN, nil, fastTrain())
	if bb.SubGraph != nil {
		t.Fatal("DNN backbone should have no substitute graph")
	}
	acc := bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	if acc < 0.4 {
		t.Fatalf("DNN backbone accuracy = %v", acc)
	}
}

func TestOriginalBeatsBackbone(t *testing.T) {
	// The paper's core premise: GCN on the real graph ≫ GCN on a random
	// substitute graph.
	ds := tinyDataset()
	cfg := fastTrain()
	orig := TrainOriginal(ds, tinySpec(), cfg)
	rndSub := substitute.Random(ds.X.Rows, ds.Graph.NumUndirectedEdges(), 1.0, 5)
	bb := TrainBackbone(ds, tinySpec(), substitute.KindRandom, rndSub, cfg)
	pOrg := orig.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	pBB := bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	if pOrg <= pBB {
		t.Fatalf("p_org (%v) not above random-substitute p_bb (%v)", pOrg, pBB)
	}
}

func TestBackboneEmbeddingsShapes(t *testing.T) {
	ds := tinyDataset()
	bb := TrainBackbone(ds, tinySpec(), substitute.KindKNN, substitute.KNN(ds.X, 2),
		TrainConfig{Epochs: 2, LR: 0.01, Seed: 1})
	embs := bb.Embeddings(ds.X)
	if len(embs) != 3 { // 2 hidden blocks + logits
		t.Fatalf("blocks = %d, want 3", len(embs))
	}
	wantDims := []int{16, 8, ds.NumClasses}
	for i, e := range embs {
		if e.Cols != wantDims[i] || e.Rows != ds.X.Rows {
			t.Fatalf("block %d shape %s, want %dx%d", i, e.Shape(), ds.X.Rows, wantDims[i])
		}
	}
	// Hidden blocks are post-ReLU: non-negative.
	for i := 0; i < 2; i++ {
		for _, v := range embs[i].Data {
			if v < 0 {
				t.Fatalf("block %d has negative activation %v", i, v)
			}
		}
	}
}

func TestRectifierDesignsDimsAndRequirements(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := tinyDataset()
	bbDims := []int{16, 8, ds.NumClasses}

	rec := NewRectifier(rng, Parallel, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
	if got := rec.RequiredEmbeddings(); len(got) != 3 || got[0] != 0 {
		t.Fatalf("parallel required = %v", got)
	}

	rec = NewRectifier(rng, Cascaded, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
	if got := rec.RequiredEmbeddings(); len(got) != 3 {
		t.Fatalf("cascaded required = %v", got)
	}
	if rec.inDim(0) != 16+8+ds.NumClasses {
		t.Fatalf("cascaded first input = %d", rec.inDim(0))
	}

	rec = NewRectifier(rng, Series, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
	if got := rec.RequiredEmbeddings(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("series required = %v (want final hidden block)", got)
	}
	if rec.inDim(0) != 8 {
		t.Fatalf("series first input = %d, want 8", rec.inDim(0))
	}
}

func TestParallelRectifierUnequalDepth(t *testing.T) {
	// M3-style: 5 backbone blocks, 3 rectifier layers → consume last 3.
	rng := rand.New(rand.NewSource(8))
	ds := tinyDataset()
	bbDims := []int{64, 32, 16, 8, ds.NumClasses}
	rec := NewRectifier(rng, Parallel, bbDims, []int{12, 6}, ds.NumClasses, ds.Graph)
	got := rec.RequiredEmbeddings()
	want := []int{2, 3, 4}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("required = %v, want %v", got, want)
	}
	if rec.inDim(0) != 16 || rec.inDim(1) != 12+8 || rec.inDim(2) != 6+ds.NumClasses {
		t.Fatalf("input dims = %d,%d,%d", rec.inDim(0), rec.inDim(1), rec.inDim(2))
	}
}

func TestParallelDeeperThanBackbonePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := tinyDataset()
	defer func() {
		if recover() == nil {
			t.Fatal("too-deep parallel rectifier did not panic")
		}
	}()
	NewRectifier(rng, Parallel, []int{8, 4}, []int{8, 8, 8}, 4, ds.Graph)
}

func TestRectifierSeriesSmallest(t *testing.T) {
	// Table II invariant: θ_series < θ_parallel and θ_series < θ_cascaded.
	rng := rand.New(rand.NewSource(10))
	ds := tinyDataset()
	bbDims := []int{16, 8, ds.NumClasses}
	sizes := map[RectifierDesign]int{}
	for _, d := range Designs {
		rec := NewRectifier(rng, d, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
		sizes[d] = rec.NumParams()
	}
	if sizes[Series] >= sizes[Parallel] || sizes[Series] >= sizes[Cascaded] {
		t.Fatalf("sizes = %v, series should be smallest", sizes)
	}
}

// TestRectifierGradCheck verifies the custom concat backward of every
// design against finite differences.
func TestRectifierGradCheck(t *testing.T) {
	ds := datasets.Generate(datasets.Config{
		Name: "grad", Nodes: 14, FeatureDim: 6, Classes: 3,
		AvgDegree: 3, Homophily: 0.8,
		ProtoDensity: 0.3, FeatureSignal: 0.5, FeatureNoise: 0.05,
		TrainPerClass: 2, Seed: 11,
	})
	spec := ModelSpec{Name: "g", BackboneHidden: []int{5, 4}, RectifierHidden: []int{5, 4}, Dropout: 0}
	bb := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2),
		TrainConfig{Epochs: 3, LR: 0.01, Seed: 11})
	all := bb.Embeddings(ds.X)

	for _, design := range Designs {
		rng := rand.New(rand.NewSource(12))
		rec := NewRectifier(rng, design, bb.BlockDims, spec.RectifierHidden, ds.NumClasses, ds.Graph)
		embs := selectEmbeddings(all, rec.RequiredEmbeddings())

		lossOf := func() float64 {
			out := rec.Forward(embs, false)
			l, _ := nn.MaskedCrossEntropy(out, ds.Labels, ds.TrainMask)
			return l
		}
		// Analytic gradients.
		nn.ZeroGrad(rec.Params())
		out := rec.Forward(embs, true)
		_, dOut := nn.MaskedCrossEntropy(out, ds.Labels, ds.TrainMask)
		rec.Backward(dOut)

		const h = 1e-5
		worst := 0.0
		for _, p := range rec.Params() {
			for i := 0; i < len(p.W.Data); i += 1 + len(p.W.Data)/25 {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + h
				lp := lossOf()
				p.W.Data[i] = orig - h
				lm := lossOf()
				p.W.Data[i] = orig
				numeric := (lp - lm) / (2 * h)
				analytic := p.Grad.Data[i]
				denom := math.Max(math.Abs(numeric)+math.Abs(analytic), 1e-8)
				if rel := math.Abs(numeric-analytic) / denom; rel > worst {
					worst = rel
				}
			}
		}
		if worst > 1e-4 {
			t.Errorf("%s: rectifier gradient check worst error %v", design, worst)
		}
	}
}

func TestRectifierForwardWrongEmbeddingCountPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := tinyDataset()
	rec := NewRectifier(rng, Series, []int{16, 8, 4}, []int{8}, 4, ds.Graph)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong embedding count did not panic")
		}
	}()
	rec.Forward(nil, false)
}

func TestRectifierParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds := tinyDataset()
	bbDims := []int{16, 8, ds.NumClasses}
	r1 := NewRectifier(rng, Parallel, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
	r2 := NewRectifier(rand.New(rand.NewSource(15)), Parallel, bbDims, []int{16, 8}, ds.NumClasses, ds.Graph)
	if err := r2.UnmarshalParams(r1.MarshalParams()); err != nil {
		t.Fatalf("UnmarshalParams: %v", err)
	}
	bb := TrainBackbone(ds, tinySpec(), substitute.KindKNN, substitute.KNN(ds.X, 2),
		TrainConfig{Epochs: 2, LR: 0.01, Seed: 14})
	embs := selectEmbeddings(bb.Embeddings(ds.X), r1.RequiredEmbeddings())
	if !r1.Forward(embs, false).EqualApprox(r2.Forward(embs, false), 1e-12) {
		t.Fatal("round-tripped rectifier differs")
	}
}

func TestRunPipelineRectifierBeatsBackbone(t *testing.T) {
	ds := tinyDataset()
	cfg := PipelineConfig{
		Spec: tinySpec(), Design: Parallel,
		SubKind: substitute.KindRandom, KNNK: 2,
		Train: fastTrain(),
	}
	res := RunPipeline(ds, cfg)
	if res.PRec <= res.PBB {
		t.Fatalf("Δp = %v ≤ 0: rectifier (%v) did not beat random-substitute backbone (%v)",
			res.DeltaP(), res.PRec, res.PBB)
	}
	if res.POrg == 0 || res.Original == nil {
		t.Fatal("original model missing")
	}
}

func TestRunPipelineSkipOriginal(t *testing.T) {
	ds := tinyDataset()
	cfg := PipelineConfig{
		Spec: tinySpec(), Design: Series,
		SubKind: substitute.KindKNN, KNNK: 2,
		Train:        TrainConfig{Epochs: 10, LR: 0.02, Seed: 2},
		SkipOriginal: true,
	}
	res := RunPipeline(ds, cfg)
	if res.Original != nil || res.POrg != 0 {
		t.Fatal("SkipOriginal did not skip")
	}
	if res.Rectifier.Design != Series {
		t.Fatal("wrong design")
	}
}

func TestDefaultPipelineConfig(t *testing.T) {
	cfg := DefaultPipelineConfig("corafull")
	if cfg.Spec.Name != "M2" || cfg.SubKind != substitute.KindKNN || cfg.KNNK != 2 {
		t.Fatalf("default config = %+v", cfg)
	}
}

func TestPipelineAllConvKinds(t *testing.T) {
	// The partition-before-training strategy must hold for GCN, GraphSAGE
	// and GAT alike (the paper's future work).
	ds := tinyDataset()
	for _, conv := range ConvKinds {
		spec := tinySpec()
		spec.Conv = conv
		cfg := PipelineConfig{
			Spec: spec, Design: Parallel,
			SubKind: substitute.KindKNN, KNNK: 2,
			Train:        TrainConfig{Epochs: 50, LR: 0.02, WeightDecay: 5e-4, Seed: 3},
			SkipOriginal: true,
		}
		res := RunPipeline(ds, cfg)
		if res.PRec <= res.PBB {
			t.Errorf("%s: p_rec (%v) did not beat p_bb (%v)", conv, res.PRec, res.PBB)
		}
	}
}

func TestDeployNonGCNRectifier(t *testing.T) {
	// SAGE rectifiers deploy and predict like GCN ones.
	ds := tinyDataset()
	spec := tinySpec()
	spec.Conv = ConvSAGE
	cfg := PipelineConfig{
		Spec: spec, Design: Series,
		SubKind: substitute.KindKNN, KNNK: 2,
		Train:        TrainConfig{Epochs: 30, LR: 0.02, Seed: 4},
		SkipOriginal: true,
	}
	res := RunPipeline(ds, cfg)
	v, err := Deploy(res.Backbone, res.Rectifier, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	labels, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if err := VerifyLabelOnly(labels, ds.NumClasses); err != nil {
		t.Fatal(err)
	}
}

func TestNewGraphConvUnknownPanics(t *testing.T) {
	ds := tinyDataset()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown conv kind did not panic")
		}
	}()
	convOperator(ConvKind("transformer"), ds.Graph)
}
