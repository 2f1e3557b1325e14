package experiments

import (
	"fmt"
	"sort"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
	"gnnvault/internal/substitute"
)

// ExtObs prices the flight recorder: the same serving workloads run twice,
// once with the default no-op recorder and once with a live span ring, and
// the committed BENCH_obs.json records the median per-query delta. CI
// gates the overhead (cmd/experiments -obs-check) so instrumentation can
// never quietly tax the hot path.

// ExtObsRow is one workload's no-op vs instrumented comparison.
type ExtObsRow struct {
	Bench          string  `json:"bench"` // tiled_full_graph | serve
	Dataset        string  `json:"dataset"`
	Rounds         int     `json:"rounds"`
	NopUS          float64 `json:"nop_us"`
	InstrumentedUS float64 `json:"instrumented_us"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// obsRounds is how many interleaved measurement rounds each workload runs;
// medians over interleaved rounds cancel drift (GC, thermal, scheduler)
// that would bias a run-A-then-run-B comparison.
const obsRounds = 7

// obsPlanBudget is the per-workspace EPC budget both legs plan under:
// small enough that the plans actually tile on cora, so tile spans are
// part of what the recorder is charged for.
const obsPlanBudget = 1 << 20

// ExtObs measures telemetry overhead on the two hot serving paths: a
// tile-streamed full-graph PredictInto workspace and the multi-vault
// registry server. Both variants execute identical plans — only the
// Recorder differs — so the delta is purely the clock reads, span
// construction and ring appends the instrumentation adds. Neither leg
// registers features with its vault, so every pass is the full pass:
// the backbone runs, and its per-op spans are part of what is measured.
func ExtObs(opts Options) ([]ExtObsRow, string) {
	opts = opts.normalise()
	name := opts.Datasets[0]
	ds := datasets.Load(name)
	train := opts.train()
	if train.Epochs > 3 {
		train.Epochs = 3
	}
	spec := core.SpecForDataset(name)
	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), train)
	rc := core.TrainRectifier(ds, bb, core.Parallel, train)

	rows := []ExtObsRow{
		obsFullGraph(name, ds, bb, rc),
		obsServe(name, ds, bb, rc),
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Bench, name,
			fmt.Sprintf("%.0f", r.NopUS), fmt.Sprintf("%.0f", r.InstrumentedUS),
			fmt.Sprintf("%+.2f%%", r.OverheadPct)})
	}
	text := "Ext: telemetry overhead, no-op recorder vs live flight-recorder ring (median of interleaved rounds)\n" +
		table([]string{"Bench", "Dataset", "nop µs", "instr µs", "overhead"}, cells)
	return rows, text
}

// obsFullGraph interleaves tiled full-graph PredictInto rounds over two
// workspaces planned from the same vault: one on the no-op recorder, one
// feeding a live span ring.
func obsFullGraph(name string, ds *datasets.Dataset, bb *core.Backbone, rc *core.Rectifier) ExtObsRow {
	v, err := core.Deploy(bb, rc, ds.Graph, enclaveDefaultCost())
	if err != nil {
		panic(fmt.Sprintf("experiments: ExtObs deploy: %v", err))
	}
	defer v.Undeploy()
	plan := func(r obs.Recorder) *core.Workspace {
		ws, err := v.PlanWith(v.Nodes(), core.PlanConfig{EPCBudgetBytes: obsPlanBudget, Recorder: r})
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtObs plan: %v", err))
		}
		return ws
	}
	wsNop := plan(nil)
	defer wsNop.Release()
	wsRec := plan(obs.NewRing(4096))
	defer wsRec.Release()

	measure := func(ws *core.Workspace) float64 {
		const reps = 4
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := v.PredictInto(ds.X, ws); err != nil {
				panic(fmt.Sprintf("experiments: ExtObs predict: %v", err))
			}
		}
		return float64(time.Since(start).Microseconds()) / reps
	}
	measure(wsNop) // warm-up both paths before timing
	measure(wsRec)
	var nop, instr []float64
	for i := 0; i < obsRounds; i++ {
		nop = append(nop, measure(wsNop))
		instr = append(instr, measure(wsRec))
	}
	return obsRow("tiled_full_graph", name, nop, instr)
}

// obsServe interleaves synthetic client streams against two identical
// single-vault registry servers, one per recorder variant. The enclave is
// sized generously so plan/evict churn cannot leak into the comparison.
func obsServe(name string, ds *datasets.Dataset, bb *core.Backbone, rc *core.Rectifier) ExtObsRow {
	build := func(r obs.Recorder) (*serve.MultiServer, *registry.Registry, string) {
		encl := enclave.New(enclaveDefaultCost(), rc.Identity())
		reg := registry.New(encl, registry.Config{
			WorkspacesPerVault: 2,
			Plan:               core.PlanConfig{EPCBudgetBytes: obsPlanBudget},
			Recorder:           r,
		})
		v, err := core.DeployInto(encl, bb, rc, ds.Graph)
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtObs serve deploy: %v", err))
		}
		id := name + "/" + string(core.Parallel)
		if err := reg.Register(id, v); err != nil {
			panic(err)
		}
		return serve.NewMulti(reg, serve.Config{Workers: 2, MaxBatch: 4}), reg, id
	}
	srvNop, regNop, id := build(nil)
	defer func() { srvNop.Close(); regNop.Close() }()
	srvRec, regRec, _ := build(obs.NewRing(4096))
	defer func() { srvRec.Close(); regRec.Close() }()

	stream := func(srv *serve.MultiServer) float64 {
		const clients, perClient = 4, 8
		start := time.Now()
		done := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func() {
				for r := 0; r < perClient; r++ {
					if _, err := srv.Predict(id, ds.X); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
		for c := 0; c < clients; c++ {
			if err := <-done; err != nil {
				panic(fmt.Sprintf("experiments: ExtObs stream: %v", err))
			}
		}
		return float64(time.Since(start).Microseconds()) / (clients * perClient)
	}
	stream(srvNop) // warm-up both servers before timing
	stream(srvRec)
	var nop, instr []float64
	for i := 0; i < obsRounds; i++ {
		nop = append(nop, stream(srvNop))
		instr = append(instr, stream(srvRec))
	}
	return obsRow("serve", name, nop, instr)
}

// obsRow folds the interleaved round samples into one comparison row.
func obsRow(bench, dataset string, nop, instr []float64) ExtObsRow {
	n, i := median(nop), median(instr)
	r := ExtObsRow{Bench: bench, Dataset: dataset, Rounds: obsRounds, NopUS: n, InstrumentedUS: i}
	if n > 0 {
		r.OverheadPct = (i - n) / n * 100
	}
	return r
}

// median of a sample set; does not modify its argument.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
