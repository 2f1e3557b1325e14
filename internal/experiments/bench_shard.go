package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

// extShardEPCMB is the fixed per-shard EPC budget the shard sweep holds
// constant across shard counts: big enough that the 1M-node single-shard
// baseline can deploy at all (its CSR alone is ~280 MB), small enough
// that the single enclave must tile its workspace where the fleet plans
// untiled. Sharding N× multiplies the fleet's total EPC while each
// enclave stays at this budget — exactly the scale lever the
// multi-enclave fleet exists to pull.
const extShardEPCMB = 384

// ExtShardRow is one shard-count point of the multi-enclave fleet sweep,
// serialised into BENCH_shard.json by `make bench-json` so the scale-out
// trajectory is tracked across PRs. Latencies are the repo's modelled
// serving time (InferenceBreakdown.Total: measured backbone + the cost
// model's transfer and in-enclave components) — on a real fleet the
// shard enclaves run on their own hardware, which the simulation models
// by billing each shard ECALL its own thread CPU time (enclave.Ecall),
// while raw wall time on the benchmark host would serialise the shards
// through its scheduler.
type ExtShardRow struct {
	Nodes         int   `json:"nodes"`
	DirectedEdges int   `json:"directed_edges"`
	Shards        int   `json:"shards"`
	PerShardEPCMB int64 `json:"per_shard_epc_mb"`
	// Mode is "untiled" when every shard's workspace fits its enclave
	// budget, "tiled" when the fixed budget forced tiled execution.
	Mode string `json:"mode"`
	// NodesPerSec is full-graph inference throughput: graph nodes
	// labelled per second of modelled serving time at the median pass
	// (the median keeps the headline robust against a single
	// GC-disturbed backbone measurement at multi-second pass times).
	NodesPerSec float64 `json:"nodes_per_sec"`
	// P50US and P99US are modelled per-pass latency quantiles in
	// microseconds.
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
	// WallUS is the mean measured wall time per pass on the benchmark
	// host, for reference (shards interleave on shared cores here).
	WallUS float64 `json:"wall_us"`
	// HaloMB is the boundary-activation traffic one pass exchanges across
	// the fleet (0 for a single shard).
	HaloMB float64 `json:"halo_mb_per_pass"`
	// SpillMB is the per-pass tiled spill traffic (0 when every shard
	// planned untiled within its EPC budget).
	SpillMB float64 `json:"spill_mb_per_pass"`
	// PeakShardEPCMB is the busiest single enclave's EPC occupancy after
	// planning — the number that must stay under PerShardEPCMB.
	PeakShardEPCMB float64 `json:"peak_shard_epc_mb"`
	// MaxAdmissibleNodes is the headline: at this configuration's
	// measured EPC bytes per node, how many nodes the fleet's total EPC
	// (shards × per-shard budget) admits. Grows with the shard count
	// while each enclave's budget stays fixed.
	MaxAdmissibleNodes int `json:"max_admissible_nodes"`
	// Failure is the injected-outage leg, measured on the widest fleet
	// (shards=4) only: nodes/s with one enclave lost vs healthy, the
	// wall time to re-seal and rejoin the shard, and whether the
	// recovered fleet answers bit-identically.
	Failure *ExtShardFailure `json:"failure,omitempty"`
}

// ExtShardFailure is the shards=4 row's injected-failure leg: one
// enclave of the fleet is marked lost mid-serving, node-query
// throughput is measured while the fleet runs degraded, then the
// shard's re-provision + re-seal + re-plan is timed and the recovered
// fleet is required to reproduce the pre-fault full-graph labels.
type ExtShardFailure struct {
	KilledShard int `json:"killed_shard"`
	// RecoveryMS is the wall time until the fleet serves again:
	// RecoverShard — provisioning a fresh enclave, re-sealing the shard's
	// CSR slice and models — plus the first re-plan of the full-graph
	// workspace, which recompiles the halo topology and re-proves fleet
	// agreement. Re-provisioning alone would leave the fleet without a
	// workspace to serve from.
	RecoveryMS float64 `json:"recovery_ms"`
	// HealthyNodesPerSec and DegradedNodesPerSec are seed nodes
	// labelled per wall second by a round-robin node-query stream over
	// every shard. During the outage, queries routed to the dead shard
	// fail fast and label nothing, so the degraded rate is what the
	// surviving shards can sustain — graceful degradation, not an
	// outage of the whole fleet.
	HealthyNodesPerSec  float64 `json:"healthy_nodes_per_sec"`
	DegradedNodesPerSec float64 `json:"degraded_nodes_per_sec"`
	// RecoveredBitIdentical records that the post-recovery full-graph
	// pass matched the pre-fault labels exactly.
	RecoveredBitIdentical bool `json:"recovered_bit_identical"`
}

// ExtShard sweeps full-graph inference across multi-enclave shard fleets
// (shard count 1, 2, 4) on a power-law graph, holding the per-shard EPC
// budget fixed. The graph size is the largest entry of
// Options.SubgraphSizes (default 50k; the committed BENCH_shard.json run
// uses 1M). Model dims are reduced (32-dim features, 32/16 backbone,
// 16/8 rectifier) so the 1M-node sweep trains in minutes — the sweep
// measures the fleet's scale-out, not accuracy. Per pass the backbone
// runs once at full height in the normal world; the rectifier fans out
// as one ECALL per shard with the per-layer halo exchange priced into
// each shard's payload. Each shard count first tries an untiled plan and
// falls back to tiling within the fixed budget — the single-enclave
// baseline pays spill traffic where the fleet's pooled EPC plans
// untiled, and the modelled latency prices both against the halo bytes
// sharding costs.
func ExtShard(opts Options) ([]ExtShardRow, string) {
	opts = opts.normalise()
	n := 50_000
	for _, s := range opts.SubgraphSizes {
		if s > n {
			n = s
		}
	}
	train := opts.train()
	if train.Epochs > 3 {
		train.Epochs = 3
	}

	ds := datasets.GeneratePowerLaw(datasets.PowerLawConfig{
		Nodes: n, FeatureDim: 32, Seed: int64(n),
	})
	sub := graph.PreferentialAttachment(graph.PreferentialAttachmentConfig{
		Nodes: n, EdgesPerNode: 8, Seed: int64(n) + 999,
	})
	spec := core.ModelSpec{Name: "bench-shard", BackboneHidden: []int{32, 16}, RectifierHidden: []int{16, 8}}
	bb := core.TrainBackbone(ds, spec, substitute.KindRandom, sub, train)
	rec := core.TrainRectifier(ds, bb, core.Series, train)

	reps := 8
	if n >= 200_000 {
		reps = 6
	}

	var rows []ExtShardRow
	var cells [][]string
	for _, shards := range []int{1, 2, 4} {
		cost := enclaveDefaultCost()
		cost.EPCBytes = extShardEPCMB << 20 // per shard: each enclave has its own EPC
		sv, err := core.DeploySharded(bb, rec, ds.Graph, cost, shards)
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtShard deploy n=%d shards=%d: %v", n, shards, err))
		}
		mode := "untiled"
		var pcfg core.PlanConfig
		ws, err := sv.PlanSharded(sv.Nodes(), pcfg)
		if errors.Is(err, enclave.ErrEPCExhausted) {
			// The fixed budget cannot hold this shard count's untiled
			// workspace: re-plan tiled against the tightest shard's free
			// EPC, like a real deployment would.
			free := int64(0)
			for s := 0; s < shards; s++ {
				if f := sv.Shard(s).Enclave.EPCFree(); free == 0 || f < free {
					free = f
				}
			}
			mode = "tiled"
			pcfg.EPCBudgetBytes = free
			ws, err = sv.PlanSharded(sv.Nodes(), pcfg)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: ExtShard plan n=%d shards=%d: %v", n, shards, err))
		}

		predict := func() (time.Duration, time.Duration) {
			start := time.Now()
			_, bd, err := sv.PredictInto(ds.X, ws)
			if err != nil {
				panic(fmt.Sprintf("experiments: ExtShard predict n=%d shards=%d: %v", n, shards, err))
			}
			return bd.Total(), time.Since(start)
		}
		predict()    // warm-up
		runtime.GC() // settle training/planning garbage before timing
		lat := make([]float64, reps)
		var wall time.Duration
		for i := 0; i < reps; i++ {
			m, w := predict()
			lat[i] = float64(m.Microseconds())
			wall += w
		}
		sort.Float64s(lat)
		quantile := func(q float64) float64 {
			return lat[int(q*float64(len(lat)-1))]
		}

		var usedEPC, peakEPC int64
		for s := 0; s < shards; s++ {
			u := sv.Shard(s).Enclave.EPCUsed()
			usedEPC += u
			if u > peakEPC {
				peakEPC = u
			}
		}
		perNode := float64(usedEPC) / float64(n)
		budget := float64(int64(shards) * extShardEPCMB << 20)

		r := ExtShardRow{
			Nodes: n, DirectedEdges: ds.Graph.NumDirectedEdges(),
			Shards: shards, PerShardEPCMB: extShardEPCMB, Mode: mode,
			NodesPerSec:        float64(n) / (quantile(0.50) * 1e-6),
			P50US:              quantile(0.50),
			P99US:              quantile(0.99),
			WallUS:             float64(wall.Microseconds()) / float64(reps),
			HaloMB:             float64(ws.HaloBytes()) / (1 << 20),
			SpillMB:            float64(ws.SpillBytes()) / (1 << 20),
			PeakShardEPCMB:     float64(peakEPC) / (1 << 20),
			MaxAdmissibleNodes: int(budget / perNode),
		}
		if shards == 4 {
			r.Failure, ws = extShardFailureLeg(sv, ds, ws, pcfg)
		}
		rows = append(rows, r)
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Shards), r.Mode,
			fmt.Sprintf("%.0f", r.NodesPerSec),
			fmt.Sprintf("%.0f", r.P50US), fmt.Sprintf("%.0f", r.P99US),
			fmt.Sprintf("%.2f", r.HaloMB), fmt.Sprintf("%.2f", r.SpillMB),
			fmt.Sprintf("%.1f", r.PeakShardEPCMB),
			fmt.Sprintf("%d", r.MaxAdmissibleNodes),
		})
		ws.Release()
		sv.Undeploy()
	}
	text := fmt.Sprintf("Ext: multi-enclave shard fleet, modelled full-graph serving (per-shard EPC %d MB)\n", extShardEPCMB) +
		table([]string{"Nodes", "Shards", "mode", "nodes/s", "p50 µs", "p99 µs", "halo MB", "spill MB", "peak EPC(MB)", "max admissible"}, cells)
	for _, r := range rows {
		if f := r.Failure; f != nil {
			text += fmt.Sprintf("failure leg (shards=%d): killed shard %d, node queries %.0f/s degraded vs %.0f/s healthy, recovered in %.1f ms, bit-identical=%v\n",
				r.Shards, f.KilledShard, f.DegradedNodesPerSec, f.HealthyNodesPerSec, f.RecoveryMS, f.RecoveredBitIdentical)
		}
	}
	return rows, text
}

// extShardFailureLeg runs the injected-outage measurement on a deployed
// fleet: a round-robin node-query stream prices the fleet's healthy
// capacity, one shard's enclave is marked lost and the stream re-run to
// price graceful degradation (dead-shard queries fail fast, the
// survivors keep answering), then RecoverShard and the re-plan of ws under
// cfg are timed and the recovered fleet must reproduce the pre-fault
// full-graph labels. It returns the re-planned workspace, which replaces ws
// for the caller to release.
func extShardFailureLeg(sv *core.ShardedVault, ds *datasets.Dataset, ws *core.ShardedWorkspace, cfg core.PlanConfig) (*ExtShardFailure, *core.ShardedWorkspace) {
	baseline, _, err := sv.PredictInto(ds.X, ws)
	if err != nil {
		panic(fmt.Sprintf("experiments: ExtShard failure-leg baseline: %v", err))
	}
	baseline = append([]int{}, baseline...)

	shards := sv.Shards()
	scfg := subgraph.Config{Hops: 2, Fanout: 8, Seed: 7}
	const seedsPerQuery = 8
	subWS := make([]*core.SubgraphWorkspace, shards)
	for s := range subWS {
		if subWS[s], err = sv.Shard(s).PlanSubgraph(seedsPerQuery, scfg); err != nil {
			panic(fmt.Sprintf("experiments: ExtShard failure-leg subgraph plan shard %d: %v", s, err))
		}
	}
	defer func() {
		for _, w := range subWS {
			w.Release()
		}
	}()

	// shardSeeds picks seedsPerQuery distinct rows owned by shard s,
	// sliding the window with q so successive queries touch fresh
	// neighbourhoods.
	shardSeeds := func(s, q int) []int {
		lo, rows := sv.Part.Bounds[s], sv.Part.Rows(s)
		seeds := make([]int, seedsPerQuery)
		base := (q * 131) % rows
		for i := range seeds {
			seeds[i] = lo + (base+i)%rows
		}
		return seeds
	}

	// stream round-robins node queries over every shard and returns seed
	// nodes labelled per wall second. Queries routed to the lost shard
	// fail fast with ErrEnclaveLost and label nothing — that shortfall
	// is exactly the degradation being priced.
	const queriesPerShard = 24
	stream := func(lost int) float64 {
		labelled := 0
		start := time.Now()
		for q := 0; q < queriesPerShard; q++ {
			for s := 0; s < shards; s++ {
				labels, _, _, err := sv.PredictNodesAt(ds.X, shardSeeds(s, q), s, subWS[s])
				if err != nil {
					if s == lost && errors.Is(err, enclave.ErrEnclaveLost) {
						continue
					}
					panic(fmt.Sprintf("experiments: ExtShard failure-leg query shard %d: %v", s, err))
				}
				labelled += len(labels)
			}
		}
		return float64(labelled) / time.Since(start).Seconds()
	}

	healthy := stream(-1)
	const killed = 1
	sv.Shard(killed).Enclave.MarkLost()
	degraded := stream(killed)

	recStart := time.Now()
	if err := sv.RecoverShard(killed); err != nil {
		panic(fmt.Sprintf("experiments: ExtShard failure-leg recover: %v", err))
	}
	ws.Release()
	if ws, err = sv.PlanSharded(sv.Nodes(), cfg); err != nil {
		panic(fmt.Sprintf("experiments: ExtShard failure-leg re-plan: %v", err))
	}
	recovery := time.Since(recStart)
	// The killed shard's subgraph workspace died with its enclave;
	// replan it on the recovered vault so the deferred releases stay
	// uniform.
	subWS[killed].Release()
	if subWS[killed], err = sv.Shard(killed).PlanSubgraph(seedsPerQuery, scfg); err != nil {
		panic(fmt.Sprintf("experiments: ExtShard failure-leg replan: %v", err))
	}

	after, _, err := sv.PredictInto(ds.X, ws)
	if err != nil {
		panic(fmt.Sprintf("experiments: ExtShard failure-leg post-recovery predict: %v", err))
	}
	identical := len(after) == len(baseline)
	for i := 0; identical && i < len(after); i++ {
		identical = after[i] == baseline[i]
	}

	return &ExtShardFailure{
		KilledShard:           killed,
		RecoveryMS:            float64(recovery.Microseconds()) / 1e3,
		HealthyNodesPerSec:    healthy,
		DegradedNodesPerSec:   degraded,
		RecoveredBitIdentical: identical,
	}, ws
}
