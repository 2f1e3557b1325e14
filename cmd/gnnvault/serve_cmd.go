package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
	"gnnvault/internal/substitute"
)

// vaultInfo describes one deployed member of the serving fleet.
type vaultInfo struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Design  string `json:"design"`
	Nodes   int    `json:"nodes"`
	Params  int    `json:"rectifier_params"`
}

// fleet is the serving state: one registry over either one shared enclave
// holding every deployed vault, or (-shards > 1) one vault cut across a
// shard fleet; the catalog, and each dataset's public features for query
// routing.
type fleet struct {
	encl   *enclave.Enclave   // the shared enclave; nil for a shard fleet
	sv     *core.ShardedVault // the shard fleet; nil unless -shards > 1
	reg    *registry.Registry
	vaults []vaultInfo
	data   map[string]*datasets.Dataset
	// nodeQueries reports whether the fleet serves the subgraph
	// node-query path (-hops > 0).
	nodeQueries bool
}

// cmdServe trains and deploys a fleet of vaults — every requested dataset ×
// design pair — into one shared enclave behind the EPC-aware registry, or
// with -shards > 1 one pair across a multi-enclave shard fleet registered
// as one registry entry, then serves label queries through the routed
// worker pool: either a synthetic concurrent stream (default) or an
// HTTP/JSON API (-http). Lowering -epc-mb below the fleet's working set
// makes the scheduler's plan/evict churn visible in the reported stats.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dataset := fs.String("dataset", "cora", "comma-separated built-in dataset names")
	design := fs.String("design", "parallel", "comma-separated rectifier designs: parallel|series|cascaded")
	sub := fs.String("sub", "knn", "substitute graph: knn|cosine|random|dnn")
	epochs := fs.Int("epochs", 100, "training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 2, "inference workers shared across the fleet")
	batch := fs.Int("batch", 8, "max requests coalesced per worker wake-up")
	shards := fs.Int("shards", 1, "shard the vault across this many enclaves: the private CSR splits at nnz-balanced row boundaries, each shard sealed in its own enclave with its own -epc-mb budget, coupled through halo-exchange SpMM (>1 requires a single dataset × design)")
	wsPerVault := fs.Int("ws-per-vault", 2, "max concurrent inference workspaces per vault")
	epcMB := fs.Int64("epc-mb", 96, "enclave EPC capacity in MB (lower it to force eviction churn)")
	epcBudgetMB := fs.Int64("epc-budget-mb", 0, "per-workspace EPC budget in MB: plans execute tile-streamed under this bound (0 = classic untiled plans)")
	precision := fs.String("precision", "fp64", "in-enclave kernel precision: fp64|int8 — int8 shrinks EPC, spill and transfer 8x; int8 plans are calibrated against the fp64 reference and refused below the agreement floor")
	minAgree := fs.Float64("min-agreement", 0, "argmax-agreement floor for int8 plans on the calibration batch (0 = default 0.99)")
	clients := fs.Int("clients", 8, "concurrent synthetic clients")
	requests := fs.Int("requests", 25, "requests per client")
	httpAddr := fs.String("http", "", "serve the HTTP/JSON API on this address (e.g. :8080) instead of the synthetic stream")
	hops := fs.Int("hops", 0, "enable node-level serving with this L-hop expansion depth (0 = full-graph only)")
	fanout := fs.Int("fanout", 10, "sampled neighbours per node per hop for node-level serving (0 = unlimited, exact L-hop)")
	maxSeeds := fs.Int("max-seeds", 16, "max seed nodes per coalesced subgraph extraction")
	exposeScores := fs.Bool("expose-scores", false, "serve per-class softmax posteriors alongside labels (widens the attack surface; label-only is the paper's default posture)")
	roundDigits := fs.Int("round-digits", 0, "round exposed scores to this many decimal digits, argmax-preserving (0 = exact scores)")
	topK := fs.Int("topk", 0, "expose only the K largest score entries per row, zeroing the rest (0 = all classes)")
	rateLimit := fs.Float64("rate-limit", 0, "per-client sustained answered-labels/second over the HTTP API (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-client token-bucket capacity in labels (0 = derived from -rate-limit)")
	queryBudget := fs.Int("query-budget", 0, "per-client lifetime cap on total answered labels (0 = unlimited)")
	deadline := fs.Duration("deadline", 0, "per-request serving deadline, enqueue to answer — expired requests fail with 503 and a Retry-After (0 = unbounded)")
	maxRetries := fs.Int("max-retries", 0, "node-query admission retries while the owning shard's breaker is open, each a jittered backoff bounded by -deadline (sharded only)")
	chaosKills := fs.Int("chaos", 0, "inject this many seeded shard kills (alternating ECALL-abort storms and enclave loss) during the sharded synthetic stream and report breaker trips, restarts and time-to-recovery (requires -shards > 1, no -http)")
	metricsOn := fs.Bool("metrics", false, "record flight-recorder spans (per-op, ECALL, plan/evict) into a live telemetry ring; implied by -trace-buffer")
	traceBuffer := fs.Int("trace-buffer", 0, "span ring capacity behind GET /debug/trace (0 = 4096 when -metrics is set, else tracing off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the HTTP API")
	fs.Parse(args) //nolint:errcheck

	if err := checkServeFlags(fs); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	var nq *registry.NodeQueryConfig
	if *hops > 0 {
		nq = &registry.NodeQueryConfig{Hops: *hops, Fanout: *fanout, MaxSeeds: *maxSeeds, Seed: uint64(*seed)}
	}
	prec, err := core.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	plan := core.PlanConfig{
		EPCBudgetBytes: *epcBudgetMB << 20,
		Precision:      prec,
		MinAgreement:   *minAgree,
	}
	// The flight-recorder ring doubles as the live span recorder for every
	// layer below: plan/evict events, per-query ECALL spans and per-op tile
	// timings all land in one buffer that /debug/trace reads back out.
	var ring *obs.Ring
	var recorder obs.Recorder
	if *metricsOn || *traceBuffer > 0 {
		capacity := *traceBuffer
		if capacity <= 0 {
			capacity = 4096
		}
		ring = obs.NewRing(capacity)
		recorder = ring
	}
	if *shards > 1 && (len(splitCSV(*dataset)) != 1 || len(splitCSV(*design)) != 1) {
		fmt.Fprintln(os.Stderr, "serve: -shards > 1 serves a single dataset × design pair")
		os.Exit(2)
	}
	if *shards == 1 && (*maxRetries > 0 || *chaosKills > 0) {
		fmt.Fprintln(os.Stderr, "serve: -max-retries and -chaos apply to a shard fleet; set -shards > 1")
		os.Exit(2)
	}
	if *chaosKills > 0 && *httpAddr != "" {
		fmt.Fprintln(os.Stderr, "serve: -chaos drives the synthetic stream; it cannot be combined with -http")
		os.Exit(2)
	}
	// -chaos reports per-outage recovery times from the fault/recover
	// spans, so it gets a trace ring even when -metrics is off.
	if ring == nil && *chaosKills > 0 {
		ring = obs.NewRing(256)
	}
	fl := buildFleet(*dataset, *design, *sub, *epochs, *seed, *epcMB, *shards, *wsPerVault, plan, nq, recorder)
	srv := serve.NewMulti(fl.reg, serve.Config{
		Workers:      *workers,
		MaxBatch:     *batch,
		ExposeScores: *exposeScores,
		RoundDigits:  *roundDigits,
		TopK:         *topK,
		Deadline:     *deadline,
		MaxRetries:   *maxRetries,
		Seed:         *seed,
		Trace:        ring,
	})
	defer func() {
		srv.Close()
		fl.reg.Close()
		if fl.sv != nil {
			fl.sv.Undeploy()
		}
	}()
	var limit *serve.RateLimit
	if *rateLimit > 0 || *queryBudget > 0 {
		limit = &serve.RateLimit{PerSec: *rateLimit, Burst: *rateBurst, Budget: *queryBudget}
	}

	mode := "untiled workspaces"
	if *epcBudgetMB > 0 {
		mode = fmt.Sprintf("tiled workspaces ≤ %d MB each", *epcBudgetMB)
	}
	if prec != core.PrecisionFP64 {
		mode += ", " + prec.String() + " enclave kernels"
	}
	if fl.sv != nil {
		bounds := fl.sv.Bounds()
		fmt.Printf("shard fleet: %d enclaves (EPC %d MB each), rows cut at %v, %d workers, %s\n",
			fl.sv.Shards(), *epcMB, bounds, *workers, mode)
		for i := 0; i < fl.sv.Shards(); i++ {
			fmt.Printf("  shard %d: rows %d, %.2f MB EPC used\n",
				i, bounds[i+1]-bounds[i], float64(fl.sv.Shard(i).Enclave.EPCUsed())/(1<<20))
		}
	} else {
		fmt.Printf("fleet of %d vaults on one enclave (EPC %.2f MB used of %d MB), %d workers, %s\n",
			len(fl.vaults), float64(fl.encl.EPCUsed())/(1<<20), fl.encl.EPCLimit()>>20, *workers, mode)
	}

	if *httpAddr != "" {
		listenAPI(*httpAddr, serve.NewAPI(srv, fl.reg, apiConfig(fl, limit, prec.String(), ring, *pprofOn)), ring, *pprofOn)
		return
	}
	runSyntheticStream(fl, srv, *clients, *requests, *chaosKills, *seed, ring)
}

// serveFlagFloors is the least legal value of every other integer serve
// flag: 1 where 0 means nothing, 0 where 0 is the documented "off",
// "unlimited" or "derived" setting. Below it a value would otherwise be
// reinterpreted silently — as a default, as "off", or as unsharded.
var serveFlagFloors = []struct {
	name string
	min  int
}{
	{"workers", 1}, {"batch", 1}, {"shards", 1}, {"ws-per-vault", 1}, {"max-seeds", 1},
	{"hops", 0}, {"fanout", 0}, {"round-digits", 0}, {"topk", 0}, {"rate-burst", 0},
	{"query-budget", 0}, {"max-retries", 0}, {"chaos", 0}, {"trace-buffer", 0},
}

// checkServeFlags rejects flag values no serve path can use: an EPC
// capacity below 1 MB (every deploy would fail as "EPC exhausted"), a
// negative workspace budget (0 already means untiled plans), any size
// whose byte count, MB << 20, overflows int64, an agreement floor that is
// not a share (NaN included), a negative or NaN -rate-limit, a negative
// -deadline, and any integer flag below its serveFlagFloors entry.
func checkServeFlags(fs *flag.FlagSet) error {
	get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
	epcMB, budgetMB, minAgree := get("epc-mb").(int64), get("epc-budget-mb").(int64), get("min-agreement").(float64)
	rate, deadline := get("rate-limit").(float64), get("deadline").(time.Duration)
	const maxMB = math.MaxInt64 >> 20
	switch {
	case epcMB < 1 || epcMB > maxMB:
		return fmt.Errorf("-epc-mb %d outside [1, %d]", epcMB, int64(maxMB))
	case budgetMB < 0 || budgetMB > maxMB:
		return fmt.Errorf("-epc-budget-mb %d outside [0, %d]", budgetMB, int64(maxMB))
	case !(minAgree >= 0 && minAgree <= 1):
		return fmt.Errorf("-min-agreement %v outside [0, 1]", minAgree)
	case !(rate >= 0):
		return fmt.Errorf("-rate-limit %v must be ≥ 0", rate)
	case deadline < 0:
		return fmt.Errorf("-deadline %v must be ≥ 0", deadline)
	}
	for _, f := range serveFlagFloors {
		if v := get(f.name).(int); v < f.min {
			return fmt.Errorf("-%s %d must be ≥ %d", f.name, v, f.min)
		}
	}
	return nil
}

// buildFleet trains one backbone per dataset and one rectifier per
// dataset × design pair, then deploys every pair into a single enclave
// measured over all rectifier identities — or, with shards > 1, the one
// pair across a shard fleet, every shard its own enclave of epcMB,
// registered as one entry of an enclave-less registry. plan shapes every
// workspace the registry admits (EPC budget → tiled streaming; per shard on
// a fleet); a non-nil nq additionally enables node-level (subgraph)
// serving on every GNN-backed vault.
func buildFleet(datasetCSV, designCSV string, sub string, epochs int, seed, epcMB int64, shards, wsPerVault int, plan core.PlanConfig, nq *registry.NodeQueryConfig, rec obs.Recorder) *fleet {
	dsNames := splitCSV(datasetCSV)
	designs := splitCSV(designCSV)
	if len(dsNames) == 0 || len(designs) == 0 {
		fmt.Fprintln(os.Stderr, "serve: need at least one dataset and one design")
		os.Exit(2)
	}

	type trained struct {
		info vaultInfo
		bb   *core.Backbone
		rec  *core.Rectifier
		ds   *datasets.Dataset
	}
	var fleetMembers []trained
	var identities [][]byte
	data := map[string]*datasets.Dataset{}
	for _, name := range dsNames {
		ds := loadDataset(name)
		data[name] = ds
		train := core.TrainConfig{Epochs: epochs, LR: 0.01, WeightDecay: 5e-4, Seed: seed}
		spec := core.SpecForDataset(name)
		kind := substitute.Kind(sub)
		subGraph := substitute.Build(kind, ds.X, 2, ds.Graph.NumUndirectedEdges(), seed)
		fmt.Printf("training backbone on %s (%s substitute) …\n", name, kind)
		bb := core.TrainBackbone(ds, spec, kind, subGraph, train)
		for _, d := range designs {
			fmt.Printf("training %s rectifier on %s …\n", d, name)
			rec := core.TrainRectifier(ds, bb, core.RectifierDesign(d), train)
			fleetMembers = append(fleetMembers, trained{
				info: vaultInfo{
					ID:      name + "/" + d,
					Dataset: name,
					Design:  d,
					Nodes:   ds.Graph.N(),
					Params:  rec.NumParams(),
				},
				bb: bb, rec: rec, ds: ds,
			})
			identities = append(identities, rec.Identity())
		}
	}

	cost := enclave.DefaultCostModel()
	cost.EPCBytes = epcMB << 20 // per shard on a fleet: each enclave has its own EPC
	fl := &fleet{data: data, nodeQueries: nq != nil}
	if shards > 1 {
		m := fleetMembers[0]
		sv, err := core.DeploySharded(m.bb, m.rec, m.ds.Graph, cost, shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sharded deploy failed: %v\n", err)
			os.Exit(1)
		}
		fl.sv = sv
	} else {
		fl.encl = enclave.New(cost, identities...)
	}
	reg := registry.New(fl.encl, registry.Config{WorkspacesPerVault: wsPerVault, Plan: plan, NodeQuery: nq, Recorder: rec})
	fl.reg = reg
	for _, m := range fleetMembers {
		// Register the dataset's own public features — the same matrix
		// every query passes in: the calibration batch of reduced-precision
		// plans, and the key under which the vault's public-half store keeps
		// their backbone embeddings after the first full-graph pass.
		var err error
		if fl.sv != nil {
			if err = fl.sv.SetCalibrationFeatures(m.ds.X); err == nil {
				err = reg.RegisterFleet(m.info.ID, fl.sv)
			}
		} else {
			var v *core.Vault
			if v, err = core.DeployInto(fl.encl, m.bb, m.rec, m.ds.Graph); err != nil {
				fmt.Fprintf(os.Stderr, "deploy %s failed: %v\n", m.info.ID, err)
				os.Exit(1)
			}
			if err = v.SetCalibrationFeatures(m.ds.X); err == nil {
				err = reg.Register(m.info.ID, v)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "register %s failed: %v\n", m.info.ID, err)
			os.Exit(1)
		}
		if nq != nil {
			if err := reg.EnableNodeQueries(m.info.ID, m.ds.X); err != nil {
				fmt.Fprintf(os.Stderr, "enable node queries on %s failed: %v\n", m.info.ID, err)
				os.Exit(1)
			}
		}
		fl.vaults = append(fl.vaults, m.info)
	}
	return fl
}

// runSyntheticStream drives concurrent clients round-robin across the
// fleet and prints serving + scheduler statistics — on a shard fleet also
// the fan-out and per-shard figures. With node-level serving enabled,
// every other request is a two-seed node query instead of a full-graph
// pass, exercising both paths through one queue. With chaos > 0 a seeded
// injector kills shards mid-stream — alternating ECALL-abort storms with
// outright enclave loss — and the report gains a recovery section: outage
// errors become expected (counted, not fatal) and the run ends by proving
// the fleet settled back to bit-identical answers.
func runSyntheticStream(fl *fleet, srv *serve.MultiServer, clients, requests, chaos int, seed int64, ring *obs.Ring) {
	mix := ""
	if fl.nodeQueries {
		mix = " (50% node queries)"
	}
	fmt.Printf("synthetic stream: %d clients × %d requests across %d vaults%s\n",
		clients, requests, len(fl.vaults), mix)
	var baseline []int
	if chaos > 0 {
		fmt.Printf("chaos: %d seeded shard kills over the stream (seed %d)\n", chaos, seed)
		var err error
		if baseline, err = srv.Predict(fl.vaults[0].ID, fl.data[fl.vaults[0].Dataset].X); err != nil {
			fmt.Fprintln(os.Stderr, "chaos baseline predict:", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	var outageErrs atomic.Uint64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				info := fl.vaults[(c+r)%len(fl.vaults)]
				var err error
				// r alone picks the kind so the mix decorrelates from the
				// round-robin vault choice above.
				if fl.nodeQueries && r%2 == 1 {
					n := info.Nodes
					seeds := [2]int{(c*131 + r*17) % n, (c*257 + r*37 + 1) % n}
					if seeds[0] == seeds[1] {
						seeds[1] = (seeds[1] + 1) % n
					}
					if _, err = srv.PredictNodes(info.ID, seeds[:]); err != nil {
						err = fmt.Errorf("%s node query: %w", info.ID, err)
					}
				} else if _, err = srv.Predict(info.ID, fl.data[info.Dataset].X); err != nil {
					err = fmt.Errorf("%s: %w", info.ID, err)
				}
				if err != nil {
					if chaos > 0 {
						outageErrs.Add(1)
						continue
					}
					errs <- err
					return
				}
			}
		}(c)
	}
	if chaos > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < chaos; k++ {
				time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
				sh := rng.Intn(fl.sv.Shards())
				if k%2 == 0 {
					fl.sv.Shard(sh).Enclave.SetFaultPlan(&enclave.FaultPlan{AbortRate: 1, Seed: int64(k + 1)})
					fmt.Printf("chaos: kill %d — shard %d ECALL-abort storm\n", k, sh)
				} else {
					fl.sv.Shard(sh).Enclave.MarkLost()
					fmt.Printf("chaos: kill %d — shard %d enclave lost\n", k, sh)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintln(os.Stderr, "serving error:", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if chaos > 0 {
		settle(srv, fl, baseline)
	}

	st := srv.Stats()
	rst := fl.reg.Stats()
	fmt.Printf("\nserved %d requests in %v\n", st.Completed, wall.Round(time.Millisecond))
	fmt.Printf("  throughput  %.1f req/s (%.1f req/s over uptime)\n",
		float64(st.Completed)/wall.Seconds(), st.Throughput)
	fmt.Printf("  latency     p50 %v, p95 %v, p99 %v, max %v\n",
		st.P50Latency.Round(time.Microsecond), st.P95Latency.Round(time.Microsecond),
		st.P99Latency.Round(time.Microsecond), st.MaxLatency.Round(time.Microsecond))
	printEndpointLatency("predict", st.FullLatency)
	printEndpointLatency("predict_nodes", st.NodeLatency)
	fmt.Printf("  batching    %d wake-ups, %.2f requests per batch\n", st.Batches, st.AvgBatch)
	fmt.Printf("  errors      %d\n", st.Errors)
	fmt.Printf("  scheduler   %d plans, %d evictions, %d/%d vaults resident\n",
		rst.Plans, rst.Evictions, rst.Resident, rst.Vaults)
	sst, sharded := srv.ShardStats(fl.vaults[0].ID)
	if sharded {
		if sst.Fanout.Count > 0 {
			fmt.Printf("  fan-out     p50 %v, p99 %v across %d shards\n",
				time.Duration(sst.Fanout.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(sst.Fanout.Quantile(0.99)).Round(time.Microsecond), sst.Shards)
		}
		for i := 0; i < sst.Shards; i++ {
			fmt.Printf("  shard %d     %.2f MB EPC used of %d MB, %.2f MB halo gathered\n",
				i, float64(sst.EPCUsed[i])/(1<<20), sst.EPCLimit[i]>>20,
				float64(sst.HaloBytes[i])/(1<<20))
		}
	}
	fmt.Printf("  enclave     %d ECALLs, %d OCALLs, %.2f MB in, %.2f MB out, %d page swaps\n",
		rst.Ledger.ECalls, rst.Ledger.OCalls, float64(rst.Ledger.BytesIn)/(1<<20),
		float64(rst.Ledger.BytesOut)/(1<<20), rst.Ledger.PageSwaps)
	fmt.Printf("  spill       %.2f MB streamed through untrusted scratch\n",
		float64(st.SpillBytes)/(1<<20))
	fmt.Printf("  backbone    %d full-graph passes computed it, %d reused the public-half store\n",
		st.BackboneComputed, st.BackboneReused)
	fmt.Printf("  EPC         %.2f MB used of %d MB\n",
		float64(rst.EPCUsed)/(1<<20), rst.EPCLimit>>20)

	if chaos > 0 {
		fmt.Printf("\nchaos report: %d kills injected, %d requests failed during outages, "+
			"%d requests past deadline\n", chaos, outageErrs.Load(), st.DeadlineExceeded)
		breakerName := map[int32]string{0: "closed", 1: "open", 2: "half-open"}
		for i := 0; i < sst.Shards; i++ {
			fmt.Printf("  shard %d     %d restarts, breaker %s\n",
				i, sst.Restarts[i], breakerName[sst.Breaker[i]])
		}
		for _, sp := range ring.Last(0) {
			if sp.Kind == obs.SpanRecover {
				fmt.Printf("  recovery    shard %d back in %v\n",
					sp.Rows, time.Duration(sp.Dur).Round(time.Microsecond))
			}
		}
		fmt.Println("  post-recovery predictions bit-identical with pre-chaos baseline")
	}
}

// settle waits, for up to 30 s, until the fleet answers a full-graph
// query again, and exits the process unless that answer is bit-identical
// to the pre-chaos baseline.
func settle(srv *serve.MultiServer, fl *fleet, baseline []int) {
	info := fl.vaults[0]
	for start := time.Now(); time.Since(start) < 30*time.Second; time.Sleep(2 * time.Millisecond) {
		labels, err := srv.Predict(info.ID, fl.data[info.Dataset].X)
		if err != nil {
			continue
		}
		if len(labels) != len(baseline) {
			fmt.Fprintln(os.Stderr, "chaos: post-recovery prediction has wrong length")
			os.Exit(1)
		}
		for i := range labels {
			if labels[i] != baseline[i] {
				fmt.Fprintf(os.Stderr, "chaos: post-recovery prediction diverged at node %d\n", i)
				os.Exit(1)
			}
		}
		return
	}
	fmt.Fprintln(os.Stderr, "chaos: fleet did not settle within 30s")
	os.Exit(1)
}

// printEndpointLatency prints one endpoint's latency quantiles from its
// obs histogram snapshot, skipping endpoints that served nothing.
func printEndpointLatency(name string, s obs.HistSnapshot) {
	if s.Count == 0 {
		return
	}
	fmt.Printf("    %-14s %d requests, p50 %v, p99 %v\n", name, s.Count,
		time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.99)).Round(time.Microsecond))
}

// splitCSV splits a comma-separated flag value, dropping empty items.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
