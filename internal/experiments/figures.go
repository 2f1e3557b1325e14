package experiments

import (
	"fmt"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/metrics"
	"gnnvault/internal/substitute"
)

// Fig4Result carries the per-layer silhouette series of Fig. 4 plus t-SNE
// CSVs of the final embeddings for plotting.
type Fig4Result struct {
	Dataset string
	// Layer silhouette series, one value per GCN block, for the three
	// models the figure compares.
	OriginalSilhouette  []float64
	BackboneSilhouette  []float64
	RectifierSilhouette []float64
	// Test accuracies annotated on the figure.
	POrg, PBB, PRec float64
	// t-SNE CSVs ("x,y,label") of each model's last-hidden embedding.
	OriginalTSNE, BackboneTSNE, RectifierTSNE string
}

// Fig4 reproduces Fig. 4: layer-by-layer latent-space rectification on
// Cora with a parallel rectifier. The silhouette of the rectifier's
// embeddings should climb toward the original model's while the backbone's
// stays low.
func Fig4(opts Options) (*Fig4Result, string) {
	opts = opts.normalise()
	name := "cora"
	if len(opts.Datasets) > 0 {
		name = opts.Datasets[0]
	}
	ds := datasets.Load(name)
	spec := core.SpecForDataset(name)
	train := opts.train()

	orig := core.TrainOriginal(ds, spec, train)
	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), train)
	rec := core.TrainRectifier(ds, bb, core.Parallel, train)

	res := &Fig4Result{
		Dataset: name,
		POrg:    orig.TestAccuracy(ds.X, ds.Labels, ds.TestMask),
		PBB:     bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask),
		PRec:    core.RectifierAccuracy(ds, bb, rec, ds.TestMask),
	}
	for _, e := range orig.Embeddings(ds.X) {
		res.OriginalSilhouette = append(res.OriginalSilhouette, metrics.Silhouette(e, ds.Labels))
	}
	bbEmbs := bb.Embeddings(ds.X)
	for _, e := range bbEmbs {
		res.BackboneSilhouette = append(res.BackboneSilhouette, metrics.Silhouette(e, ds.Labels))
	}
	for _, e := range core.RectifierActivations(ds, bb, rec) {
		res.RectifierSilhouette = append(res.RectifierSilhouette, metrics.Silhouette(e, ds.Labels))
	}

	// Exact t-SNE is O(n²·iters); subsample nodes for the visual panels so
	// Fig. 4 stays cheap (the silhouette series above uses all nodes).
	tsneCfg := metrics.TSNEConfig{Perplexity: 20, Iterations: 250, Seed: opts.Seed}
	sampleIdx := tsneSample(ds.Graph.N(), 300)
	sampleLabels := make([]int, len(sampleIdx))
	for i, j := range sampleIdx {
		sampleLabels[i] = ds.Labels[j]
	}
	origEmbs := orig.Embeddings(ds.X)
	recActs := core.RectifierActivations(ds, bb, rec)
	embed := func(m *mat.Matrix) string {
		return metrics.TSNEToCSV(metrics.TSNE(m.SelectRows(sampleIdx), tsneCfg), sampleLabels)
	}
	res.OriginalTSNE = embed(origEmbs[len(origEmbs)-2])
	res.BackboneTSNE = embed(bbEmbs[len(bbEmbs)-2])
	res.RectifierTSNE = embed(recActs[len(recActs)-1])

	var cells [][]string
	maxLen := len(res.OriginalSilhouette)
	if len(res.RectifierSilhouette) > maxLen {
		maxLen = len(res.RectifierSilhouette)
	}
	for i := 0; i < maxLen; i++ {
		get := func(s []float64) string {
			if i < len(s) {
				return fmt.Sprintf("%.3f", s[i])
			}
			return "-"
		}
		cells = append(cells, []string{
			fmt.Sprintf("gconv %d", i+1),
			get(res.OriginalSilhouette), get(res.BackboneSilhouette), get(res.RectifierSilhouette),
		})
	}
	text := fmt.Sprintf("Fig. 4 — silhouette per layer on %s (acc: org %.1f%%, bb %.1f%%, rec %.1f%%)\n",
		name, res.POrg*100, res.PBB*100, res.PRec*100) +
		table([]string{"Layer", "original", "backbone", "rectifier"}, cells)
	return res, text
}

// Fig5Point is one sweep sample: a substitute-graph hyperparameter value
// and the resulting backbone/rectified accuracies.
type Fig5Point struct {
	Param     float64
	PBB, PRec float64
}

// Fig5Result holds the three ablation sweeps for one dataset.
type Fig5Result struct {
	Dataset     string
	KNNK        []Fig5Point // vs k
	CosineTau   []Fig5Point // vs τ
	RandomRatio []Fig5Point // vs fraction of real edge count
}

// Fig5Sweeps are the default hyperparameter grids of the ablation.
var (
	Fig5KValues     = []float64{1, 2, 3, 4, 6, 8}
	Fig5TauValues   = []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	Fig5RandomFracs = []float64{0.05, 0.25, 0.5, 1.0, 2.0}
)

// Fig5 reproduces Fig. 5: the impact of each substitute graph's
// hyperparameter on p_bb and p_rec (parallel rectifier).
func Fig5(opts Options) ([]Fig5Result, string) {
	opts = opts.normalise()
	names := opts.Datasets
	if len(names) > 2 {
		names = names[:2] // the paper sweeps Cora and Citeseer
	}
	train := opts.train()
	var results []Fig5Result
	text := "Fig. 5 — substitute graph hyperparameter sweeps\n"

	run := func(ds *datasets.Dataset, spec core.ModelSpec, kind substitute.Kind, sub *graph.Graph) Fig5Point {
		bb := core.TrainBackbone(ds, spec, kind, sub, train)
		rec := core.TrainRectifier(ds, bb, core.Parallel, train)
		return Fig5Point{
			PBB:  bb.TestAccuracy(ds.X, ds.Labels, ds.TestMask),
			PRec: core.RectifierAccuracy(ds, bb, rec, ds.TestMask),
		}
	}

	for _, name := range names {
		ds := datasets.Load(name)
		spec := core.SpecForDataset(name)
		res := Fig5Result{Dataset: name}

		var cells [][]string
		for _, k := range Fig5KValues {
			p := run(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, int(k)))
			p.Param = k
			res.KNNK = append(res.KNNK, p)
			cells = append(cells, []string{"knn", fmt.Sprintf("k=%.0f", k), pct(p.PBB), pct(p.PRec)})
		}
		for _, tau := range Fig5TauValues {
			p := run(ds, spec, substitute.KindCosine, substitute.Cosine(ds.X, tau))
			p.Param = tau
			res.CosineTau = append(res.CosineTau, p)
			cells = append(cells, []string{"cosine", fmt.Sprintf("τ=%.2f", tau), pct(p.PBB), pct(p.PRec)})
		}
		for _, frac := range Fig5RandomFracs {
			sub := substitute.Random(ds.X.Rows, ds.Graph.NumUndirectedEdges(), frac, opts.Seed)
			p := run(ds, spec, substitute.KindRandom, sub)
			p.Param = frac
			res.RandomRatio = append(res.RandomRatio, p)
			cells = append(cells, []string{"random", fmt.Sprintf("%.0f%% edges", frac*100), pct(p.PBB), pct(p.PRec)})
		}
		results = append(results, res)
		text += "\n" + name + ":\n" + table([]string{"Graph", "Param", "p_bb", "p_rec"}, cells)
	}
	return results, text
}

// Fig6Row is one (model, design) inference measurement of Fig. 6.
type Fig6Row struct {
	Model   string // M1/M2/M3
	Dataset string
	Design  core.RectifierDesign

	Backbone time.Duration
	Transfer time.Duration
	Enclave  time.Duration
	Total    time.Duration

	UnprotectedCPU time.Duration
	OverheadPct    float64 // (Total-Unprotected)/Unprotected × 100

	EnclaveMemBytes   int64
	FullModelMemBytes int64
	FitsEPC           bool
}

// Fig6Pairs maps the paper's model/dataset pairing: M1 on Cora, M2 on
// CoraFull, M3 on Amazon Computer.
var Fig6Pairs = []struct{ Model, Dataset string }{
	{"M1", "cora"}, {"M2", "corafull"}, {"M3", "computer"},
}

// Fig6 reproduces Fig. 6: the inference-time breakdown
// (backbone/transfer/enclave) and enclave memory usage for the three model
// families × three rectifier designs, against the unprotected CPU baseline.
func Fig6(opts Options) ([]Fig6Row, string) {
	opts = opts.normalise()
	train := opts.train()
	var rows []Fig6Row
	var cells [][]string
	for _, pair := range Fig6Pairs {
		if !contains(opts.Datasets, pair.Dataset) {
			continue
		}
		ds := datasets.Load(pair.Dataset)
		spec := core.SpecByName(pair.Model)
		orig := core.TrainOriginal(ds, spec, train)
		_, unprotected := core.UnprotectedInference(orig, ds.X)
		sub := substitute.KNN(ds.X, 2)
		bb := core.TrainBackbone(ds, spec, substitute.KindKNN, sub, train)

		for _, design := range core.Designs {
			rec := core.TrainRectifier(ds, bb, design, train)
			vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
			if err != nil {
				panic(fmt.Sprintf("experiments: Fig6 deploy %s/%s: %v", pair.Model, design, err))
			}
			bd := measurePlanned(vault, ds.X, core.PlanConfig{})
			mem := core.EnclaveMemoryEstimate(rec, bb.BlockDims, ds.X.Rows)
			full := core.FullModelMemoryEstimate(orig, ds.X.Rows, ds.X.Cols)
			row := Fig6Row{
				Model: pair.Model, Dataset: pair.Dataset, Design: design,
				Backbone: bd.BackboneTime, Transfer: bd.TransferTime,
				Enclave: bd.EnclaveTime, Total: bd.Total(),
				UnprotectedCPU: unprotected,
				OverheadPct: 100 * (float64(bd.Total()) - float64(unprotected)) /
					float64(unprotected),
				EnclaveMemBytes:   mem,
				FullModelMemBytes: full,
				FitsEPC:           mem <= vault.Enclave.EPCLimit(),
			}
			rows = append(rows, row)
			cells = append(cells, []string{
				pair.Model, pair.Dataset, string(design),
				row.Backbone.String(), row.Transfer.String(), row.Enclave.String(),
				row.Total.String(), row.UnprotectedCPU.String(),
				fmt.Sprintf("%+.0f%%", row.OverheadPct),
				mb(row.EnclaveMemBytes), mb(row.FullModelMemBytes),
				fmt.Sprintf("%v", row.FitsEPC),
			})
		}
	}
	text := "Fig. 6 — inference time breakdown and enclave memory\n" + table(
		[]string{"Model", "Dataset", "Design", "backbone", "transfer", "enclave",
			"total", "unprot CPU", "overhead", "encl mem(MB)", "full mem(MB)", "fits EPC"}, cells)
	return rows, text
}

// tsneSample returns an evenly spaced subsample of [0, n).
func tsneSample(n, max int) []int {
	if n <= max {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, max)
	for i := range idx {
		idx[i] = i * n / max
	}
	return idx
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
