package experiments

import (
	"fmt"
	"time"

	"gnnvault/internal/attack"
	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

// The experiments in this file go beyond the paper's evaluation:
// ExtArchitectures implements its stated future work (GraphSAGE and GAT
// under the GNNVault strategy), and ExtLabelOnly quantifies the Sec. IV-E
// design decision to keep logits inside the enclave.

// ExtArchRow is one (dataset, architecture) result.
type ExtArchRow struct {
	Dataset string
	Conv    core.ConvKind
	POrg    float64
	PBB     float64
	PRec    float64
}

// ExtArchitectures runs the GNNVault pipeline with GCN, GraphSAGE, and GAT
// convolutions (backbone and rectifier alike) — the paper's future-work
// section realised. The partition-before-training strategy should hold for
// every architecture: p_bb ≪ p_rec ≈ p_org.
func ExtArchitectures(opts Options) ([]ExtArchRow, string) {
	opts = opts.normalise()
	names := opts.Datasets
	if len(names) > 2 {
		names = names[:2]
	}
	var rows []ExtArchRow
	var cells [][]string
	for _, name := range names {
		ds := datasets.Load(name)
		for _, conv := range core.ConvKinds {
			spec := core.SpecForDataset(name)
			spec.Conv = conv
			cfg := core.PipelineConfig{
				Spec: spec, Design: core.Parallel,
				SubKind: substitute.KindKNN, KNNK: 2,
				Train: opts.train(),
			}
			res := core.RunPipeline(ds, cfg)
			row := ExtArchRow{
				Dataset: name, Conv: conv,
				POrg: res.POrg, PBB: res.PBB, PRec: res.PRec,
			}
			rows = append(rows, row)
			cells = append(cells, []string{name, string(conv),
				pct(row.POrg), pct(row.PBB), pct(row.PRec), pct(row.PRec - row.PBB)})
		}
	}
	text := "Extension — GNNVault across architectures (future work of the paper)\n" +
		table([]string{"Dataset", "Conv", "p_org", "p_bb", "p_rec", "Δp"}, cells)
	return rows, text
}

// ExtLabelOnlyRow quantifies one output-exposure policy.
type ExtLabelOnlyRow struct {
	Dataset string
	Surface string // what the attacker observes
	// WorstAUC is the maximum link-stealing AUC across the six metrics.
	WorstAUC float64
}

// ExtLabelOnly justifies the paper's label-only output rule (Sec. IV-E):
// it mounts the link-stealing attack on three progressively smaller
// observation surfaces of the *protected* deployment — all backbone
// embeddings, the rectified logits (as if the enclave returned them), and
// the rectified labels alone (one-hot encoded). Logit exposure re-leaks
// edge information that the enclave isolation had removed; labels leak the
// least.
func ExtLabelOnly(opts Options) ([]ExtLabelOnlyRow, string) {
	opts = opts.normalise()
	names := opts.Datasets
	if len(names) > 1 {
		names = names[:1]
	}
	var rows []ExtLabelOnlyRow
	var cells [][]string
	for _, name := range names {
		ds := datasets.Load(name)
		cfg := core.PipelineConfig{
			Spec: core.SpecForDataset(name), Design: core.Parallel,
			SubKind: substitute.KindKNN, KNNK: 2,
			Train: opts.train(), SkipOriginal: true,
		}
		res := core.RunPipeline(ds, cfg)
		sample := attack.SamplePairs(ds.Graph, opts.AttackPairs, opts.Seed+42)

		recActs := core.RectifierActivations(ds, res.Backbone, res.Rectifier)
		logits := recActs[len(recActs)-1]
		labels := oneHot(logits.ArgmaxRows(), ds.NumClasses)

		surfaces := []struct {
			name string
			obs  []*mat.Matrix
		}{
			{"backbone embeddings (deployed)", res.Backbone.Embeddings(ds.X)},
			{"rectified logits (if leaked)", []*mat.Matrix{logits}},
			{"labels only (paper's policy)", []*mat.Matrix{labels}},
		}
		for _, s := range surfaces {
			worst := 0.0
			for _, m := range attack.Metrics {
				if auc := attack.AUC(m, s.obs, sample); auc > worst {
					worst = auc
				}
			}
			rows = append(rows, ExtLabelOnlyRow{Dataset: name, Surface: s.name, WorstAUC: worst})
			cells = append(cells, []string{name, s.name, fmt.Sprintf("%.3f", worst)})
		}
	}
	text := "Extension — output exposure vs link leakage (worst AUC over 6 metrics)\n" +
		table([]string{"Dataset", "Attacker observes", "Worst AUC"}, cells)
	return rows, text
}

func oneHot(labels []int, classes int) *mat.Matrix {
	m := mat.New(len(labels), classes)
	for i, l := range labels {
		m.Set(i, l, 1)
	}
	return m
}

// ExtSilhouetteGap is a compact numeric summary of Fig. 4 used by the
// ablation bench: the silhouette gap closed by the rectifier.
func ExtSilhouetteGap(opts Options) (backbone, rectifier, original float64) {
	res, _ := Fig4(opts)
	last := func(s []float64) float64 { return s[len(s)-1] }
	return last(res.BackboneSilhouette), last(res.RectifierSilhouette), last(res.OriginalSilhouette)
}

// ExtExtractionRow is one model-extraction result.
type ExtExtractionRow struct {
	Dataset  string
	Victim   string  // what the attacker queries
	Fidelity float64 // agreement with the victim's predictions (test nodes)
	TestAcc  float64 // surrogate's own test accuracy
}

// ExtExtraction runs the model-stealing arm of the threat model: an
// attacker who can query the deployment on every node trains a surrogate
// from the responses, using only public knowledge (features + KNN
// substitute graph). Against an unprotected deployment the victim's logits
// are observable and the surrogate distils them; against GNNVault only the
// label-only output is available. The gap between the surrogate's accuracy
// and p_org is the model IP that stays protected.
func ExtExtraction(opts Options) ([]ExtExtractionRow, string) {
	opts = opts.normalise()
	names := opts.Datasets
	if len(names) > 1 {
		names = names[:1]
	}
	var rows []ExtExtractionRow
	var cells [][]string
	for _, name := range names {
		ds := datasets.Load(name)
		cfg := core.PipelineConfig{
			Spec: core.SpecForDataset(name), Design: core.Parallel,
			SubKind: substitute.KindKNN, KNNK: 2,
			Train: opts.train(),
		}
		res := core.RunPipeline(ds, cfg)
		public := substitute.KNN(ds.X, 2)
		queries := make([]int, ds.X.Rows)
		for i := range queries {
			queries[i] = i
		}
		exCfg := attack.DefaultExtractionConfig()
		exCfg.Epochs = opts.Epochs
		exCfg.Seed = opts.Seed

		// Unprotected: victim logits observable.
		origLogits := res.Original.Logits(ds.X)
		sLogit := attack.ExtractFromLogits(ds.X, public, origLogits, queries, exCfg)
		origPred := origLogits.ArgmaxRows()
		rowU := ExtExtractionRow{
			Dataset:  name,
			Victim:   "unprotected (logits)",
			Fidelity: attack.Fidelity(sLogit.Predict(ds.X), origPred, ds.TestMask),
			TestAcc:  accuracyOf(sLogit.Predict(ds.X), ds.Labels, ds.TestMask),
		}

		// GNNVault: label-only responses from the rectified model.
		recActs := core.RectifierActivations(ds, res.Backbone, res.Rectifier)
		vaultLabels := recActs[len(recActs)-1].ArgmaxRows()
		sLabel := attack.ExtractFromLabels(ds.X, public, vaultLabels, ds.NumClasses, queries, exCfg)
		rowG := ExtExtractionRow{
			Dataset:  name,
			Victim:   "GNNVault (labels only)",
			Fidelity: attack.Fidelity(sLabel.Predict(ds.X), vaultLabels, ds.TestMask),
			TestAcc:  accuracyOf(sLabel.Predict(ds.X), ds.Labels, ds.TestMask),
		}
		rows = append(rows, rowU, rowG)
		for _, r := range []ExtExtractionRow{rowU, rowG} {
			cells = append(cells, []string{name, r.Victim, pct(r.Fidelity), pct(r.TestAcc)})
		}
		cells = append(cells, []string{name, "reference p_org / p_bb",
			pct(res.POrg), pct(res.PBB)})
	}
	text := "Extension — model extraction with public knowledge only\n" +
		table([]string{"Dataset", "Victim surface", "Fidelity", "Surrogate acc"}, cells)
	return rows, text
}

func accuracyOf(pred, labels []int, mask []int) float64 {
	if len(mask) == 0 {
		return 0
	}
	ok := 0
	for _, i := range mask {
		if pred[i] == labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(mask))
}

// ExtStreamingRow is one (design, plan shape) cell of the deployment-path
// ablation; Mode reads "<design>/batched" or "<design>/streamed".
type ExtStreamingRow struct {
	Dataset      string
	Mode         string
	ECalls       int
	PeakEPCBytes int64
	Total        string
}

// extStreamBudget is the streamed plans' workspace budget: well under any
// design's resident working set on the smallest dataset, so the comparison
// is between shapes and not between two sizes of the same one.
const extStreamBudget = 1 << 20

// ExtStreaming is the deployment-path ablation, per rectifier design:
// batched (the PlanConfig zero value — the whole working set and the
// transferred embeddings EPC-resident) versus streamed (the same program
// under a fixed EPC budget — activations cross the boundary tile by tile
// and only the staging tile is resident). Both are one ECALL on one
// engine. Streamed cuts the peak EPC footprint — the constraint Sec. III-C
// is about — at no accuracy cost: a tiled fp64 plan's labels are the direct
// plan's bit for bit (core's TestPlanModesMatchReference), and what it
// pays is spill traffic, which shows in the total.
func ExtStreaming(opts Options) ([]ExtStreamingRow, string) {
	opts = opts.normalise()
	name := opts.Datasets[0]
	ds := datasets.Load(name)
	train := opts.train()
	bb := core.TrainBackbone(ds, core.SpecForDataset(name), substitute.KindKNN, substitute.KNN(ds.X, 2), train)
	var rows []ExtStreamingRow
	var cells [][]string
	for _, design := range core.Designs {
		rec := core.TrainRectifier(ds, bb, design, train)
		vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtStreaming deploy %s: %v", design, err))
		}
		for _, mode := range []struct {
			name string
			cfg  core.PlanConfig
		}{
			{"batched", core.PlanConfig{}},
			{"streamed", core.PlanConfig{EPCBudgetBytes: extStreamBudget}},
		} {
			bd := measurePlanned(vault, ds.X, mode.cfg)
			r := ExtStreamingRow{
				Dataset: name, Mode: string(design) + "/" + mode.name, ECalls: bd.ECalls,
				PeakEPCBytes: bd.PeakEPCBytes, Total: bd.Total().String(),
			}
			rows = append(rows, r)
			cells = append(cells, []string{name, r.Mode,
				fmt.Sprintf("%d", r.ECalls), mb(r.PeakEPCBytes), r.Total})
		}
	}
	text := "Extension — batched vs streamed rectifier deployment\n" +
		table([]string{"Dataset", "Mode", "ECALLs", "peak EPC(MB)", "total"}, cells)
	return rows, text
}

// measurePlanned plans one workspace under cfg, runs a warm-up pass and a
// measured one over x, releases the workspace and returns the measured
// pass's breakdown — how the paper-figure experiments time a deployment.
func measurePlanned(vault *core.Vault, x *mat.Matrix, cfg core.PlanConfig) core.InferenceBreakdown {
	ws, err := vault.PlanWith(x.Rows, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: plan: %v", err))
	}
	defer ws.Release()
	var bd core.InferenceBreakdown
	for pass := 0; pass < 2; pass++ { // warm up once, then measure
		if _, bd, err = vault.PredictInto(x, ws); err != nil {
			panic(fmt.Sprintf("experiments: predict: %v", err))
		}
	}
	return bd
}

func enclaveDefaultCost() enclave.CostModel { return enclave.DefaultCostModel() }

// ExtSubgraphRow is one graph-size point of the node-level serving
// latency sweep, serialised into BENCH_subgraph.json by `make bench-json`
// so the perf trajectory is tracked across PRs.
type ExtSubgraphRow struct {
	Nodes           int     `json:"nodes"`
	DirectedEdges   int     `json:"directed_edges"`
	Hops            int     `json:"hops"`
	Fanout          int     `json:"fanout"`
	ExtractedNodes  int     `json:"extracted_nodes"`
	SubgraphQueryUS float64 `json:"subgraph_query_us"`
	FullQueryUS     float64 `json:"full_query_us"`
	Speedup         float64 `json:"speedup"`
	SubgraphEPC     int64   `json:"subgraph_epc_bytes"`
	FullEPC         int64   `json:"full_epc_bytes"`
}

// ExtSubgraph sweeps node-query latency through the subgraph engine
// against the full-graph baseline over growing power-law graphs
// (hops=2, fanout=10, 4-seed batches). Sizes come from
// Options.SubgraphSizes (default 20k and 50k — large enough to show the
// O(query) vs O(graph) separation, small enough for CI). Training is
// capped at 3 epochs: the sweep measures serving latency, not accuracy.
func ExtSubgraph(opts Options) ([]ExtSubgraphRow, string) {
	opts = opts.normalise()
	sizes := opts.SubgraphSizes
	if len(sizes) == 0 {
		sizes = []int{20_000, 50_000}
	}
	train := opts.train()
	if train.Epochs > 3 {
		train.Epochs = 3
	}
	const hops, fanout, seedBatch = 2, 10, 4

	var rows []ExtSubgraphRow
	var cells [][]string
	for _, n := range sizes {
		ds := datasets.GeneratePowerLaw(datasets.PowerLawConfig{Nodes: n, Seed: int64(n)})
		sub := graph.PreferentialAttachment(graph.PreferentialAttachmentConfig{
			Nodes: n, EdgesPerNode: 8, Seed: int64(n) + 999,
		})
		spec := core.ModelSpec{Name: "bench-pl", BackboneHidden: []int{64, 32}, RectifierHidden: []int{32, 16}}
		bb := core.TrainBackbone(ds, spec, substitute.KindRandom, sub, train)
		rec := core.TrainRectifier(ds, bb, core.Series, train)
		cost := enclaveDefaultCost()
		cost.EPCBytes = 4 << 30 // let the full-graph baseline plan at every size
		v, err := core.Deploy(bb, rec, ds.Graph, cost)
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtSubgraph deploy %d: %v", n, err))
		}

		sws, err := v.PlanSubgraph(seedBatch, subgraph.Config{Hops: hops, Fanout: fanout, Seed: 1})
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtSubgraph plan %d: %v", n, err))
		}
		fws, err := v.Plan(v.Nodes())
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtSubgraph full plan %d: %v", n, err))
		}
		seeds := []int{n / 3, n/3 + 7, n / 2, n - 11}

		timeIt := func(reps int, f func()) float64 {
			f() // warm-up
			start := time.Now()
			for i := 0; i < reps; i++ {
				f()
			}
			return float64(time.Since(start).Microseconds()) / float64(reps)
		}
		subUS := timeIt(5, func() {
			if _, _, err := v.PredictNodesInto(ds.X, seeds, sws); err != nil {
				panic(err)
			}
		})
		fullUS := timeIt(2, func() {
			if _, _, err := v.PredictInto(ds.X, fws); err != nil {
				panic(err)
			}
		})

		r := ExtSubgraphRow{
			Nodes: n, DirectedEdges: ds.Graph.NumDirectedEdges(),
			Hops: hops, Fanout: fanout, ExtractedNodes: sws.LastExtracted(),
			SubgraphQueryUS: subUS, FullQueryUS: fullUS, Speedup: fullUS / subUS,
			SubgraphEPC: sws.EnclaveBytes(), FullEPC: fws.EnclaveBytes(),
		}
		rows = append(rows, r)
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.ExtractedNodes),
			fmt.Sprintf("%.0f", r.SubgraphQueryUS), fmt.Sprintf("%.0f", r.FullQueryUS),
			fmt.Sprintf("%.1f×", r.Speedup), mb(r.SubgraphEPC), mb(r.FullEPC),
		})
		sws.Release()
		fws.Release()
		v.Undeploy()
	}
	text := "Ext: node-query latency, subgraph engine vs full-graph (hops=2, fanout=10)\n" +
		table([]string{"Nodes", "SubNodes", "sub µs/q", "full µs/q", "speedup", "subEPC(MB)", "fullEPC(MB)"}, cells)
	return rows, text
}
