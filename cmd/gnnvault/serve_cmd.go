package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
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

// fleet is the multi-vault serving state: one enclave, one registry, the
// deployed vaults, and each dataset's public features for query routing.
type fleet struct {
	encl   *enclave.Enclave
	reg    *registry.Registry
	vaults []vaultInfo
	data   map[string]*datasets.Dataset
	// nodeQueries reports whether the fleet serves the subgraph
	// node-query path (-hops > 0).
	nodeQueries bool
}

// cmdServe trains and deploys a fleet of vaults — every requested dataset ×
// design pair — into one shared enclave behind the EPC-aware registry, then
// serves label queries through the routed worker pool: either a synthetic
// concurrent stream (default) or an HTTP/JSON API (-http). Lowering -epc-mb
// below the fleet's working set makes the scheduler's plan/evict churn
// visible in the reported stats.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dataset := fs.String("dataset", "cora", "comma-separated built-in dataset names")
	design := fs.String("design", "parallel", "comma-separated rectifier designs: parallel|series|cascaded")
	sub := fs.String("sub", "knn", "substitute graph: knn|cosine|random|dnn")
	epochs := fs.Int("epochs", 100, "training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 2, "inference workers shared across the fleet")
	batch := fs.Int("batch", 8, "max requests coalesced per worker wake-up")
	shards := fs.Int("shards", 1, "shard the vault across this many enclaves: the private CSR splits at nnz-balanced row boundaries, each shard sealed in its own enclave with its own -epc-mb budget, coupled through halo-exchange SpMM (>1 requires a single dataset × design; label-only)")
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
	deadline := fs.Duration("deadline", 0, "per-request serving deadline on a shard fleet, enqueue to answer — expired requests fail with 503 and a Retry-After (0 = unbounded; sharded only)")
	maxRetries := fs.Int("max-retries", 0, "node-query admission retries while the owning shard's breaker is open, each a jittered backoff bounded by -deadline (sharded only)")
	chaosKills := fs.Int("chaos", 0, "inject this many seeded shard kills (alternating ECALL-abort storms and enclave loss) during the sharded synthetic stream and report breaker trips, restarts and time-to-recovery (requires -shards > 1, no -http)")
	metricsOn := fs.Bool("metrics", false, "record flight-recorder spans (per-op, ECALL, plan/evict) into a live telemetry ring; implied by -trace-buffer")
	traceBuffer := fs.Int("trace-buffer", 0, "span ring capacity behind GET /debug/trace (0 = 4096 when -metrics is set, else tracing off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the HTTP API")
	fs.Parse(args) //nolint:errcheck

	if err := checkServeFlags(*epcMB, *epcBudgetMB, *minAgree); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	if *workers <= 0 {
		*workers = 2 // serve.Config's default, surfaced so the banner is honest
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
	if *shards > 1 {
		var limit *serve.RateLimit
		if *rateLimit > 0 || *queryBudget > 0 {
			limit = &serve.RateLimit{PerSec: *rateLimit, Burst: *rateBurst, Budget: *queryBudget}
		}
		if *exposeScores {
			fmt.Fprintln(os.Stderr, "serve: -shards is label-only; -expose-scores is not supported on a shard fleet")
			os.Exit(2)
		}
		if *chaosKills > 0 && *httpAddr != "" {
			fmt.Fprintln(os.Stderr, "serve: -chaos drives the synthetic stream; it cannot be combined with -http")
			os.Exit(2)
		}
		runSharded(shardedServeConfig{
			dataset: *dataset, design: *design, sub: *sub,
			epochs: *epochs, seed: *seed, shards: *shards, epcMB: *epcMB,
			workers: *workers, batch: *batch, plan: plan, nq: nq,
			clients: *clients, requests: *requests,
			httpAddr: *httpAddr, limit: limit, precision: prec.String(),
			ring: ring, recorder: recorder, pprof: *pprofOn,
			deadline: *deadline, maxRetries: *maxRetries, chaos: *chaosKills,
		})
		return
	}
	if *deadline > 0 || *maxRetries > 0 || *chaosKills > 0 {
		fmt.Fprintln(os.Stderr, "serve: -deadline, -max-retries and -chaos apply to a shard fleet; set -shards > 1")
		os.Exit(2)
	}
	fl := buildFleet(*dataset, *design, *sub, *epochs, *seed, *epcMB, *wsPerVault, plan, nq, recorder)
	srv := serve.NewMulti(fl.reg, serve.Config{
		Workers:      *workers,
		MaxBatch:     *batch,
		ExposeScores: *exposeScores,
		RoundDigits:  *roundDigits,
		TopK:         *topK,
	})
	defer func() {
		srv.Close()
		fl.reg.Close()
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
	fmt.Printf("fleet of %d vaults on one enclave (EPC %.2f MB used of %d MB), %d workers, %s\n",
		len(fl.vaults), float64(fl.encl.EPCUsed())/(1<<20), fl.encl.EPCLimit()>>20, *workers, mode)

	if *httpAddr != "" {
		listenAPI(*httpAddr, serve.NewAPI(srv, fl.reg, apiConfig(fl, limit, prec.String(), ring, *pprofOn)), ring, *pprofOn)
		return
	}
	runSyntheticStream(fl, srv, *clients, *requests)
}

// checkServeFlags rejects flag values no serve path can use: an EPC
// capacity below 1 MB (every deploy would fail as "EPC exhausted"), a
// negative workspace budget (0 already means untiled plans), any size
// whose byte count, MB << 20, overflows int64, and an agreement floor
// that is not a share (NaN included).
func checkServeFlags(epcMB, budgetMB int64, minAgree float64) error {
	const maxMB = math.MaxInt64 >> 20
	switch {
	case epcMB < 1 || epcMB > maxMB:
		return fmt.Errorf("-epc-mb %d outside [1, %d]", epcMB, int64(maxMB))
	case budgetMB < 0 || budgetMB > maxMB:
		return fmt.Errorf("-epc-budget-mb %d outside [0, %d]", budgetMB, int64(maxMB))
	case !(minAgree >= 0 && minAgree <= 1):
		return fmt.Errorf("-min-agreement %v outside [0, 1]", minAgree)
	}
	return nil
}

// buildFleet trains one backbone per dataset and one rectifier per
// dataset × design pair, then deploys every pair into a single enclave
// measured over all rectifier identities. plan shapes every workspace the
// registry admits (EPC budget → tiled streaming); a non-nil nq
// additionally enables node-level (subgraph) serving on every GNN-backed
// vault.
func buildFleet(datasetCSV, designCSV string, sub string, epochs int, seed, epcMB int64, wsPerVault int, plan core.PlanConfig, nq *registry.NodeQueryConfig, rec obs.Recorder) *fleet {
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
	cost.EPCBytes = epcMB << 20
	encl := enclave.New(cost, identities...)
	reg := registry.New(encl, registry.Config{WorkspacesPerVault: wsPerVault, Plan: plan, NodeQuery: nq, Recorder: rec})
	fl := &fleet{encl: encl, reg: reg, data: data, nodeQueries: nq != nil}
	for _, m := range fleetMembers {
		v, err := core.DeployInto(encl, m.bb, m.rec, m.ds.Graph)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deploy %s failed: %v\n", m.info.ID, err)
			os.Exit(1)
		}
		// Register the dataset's own public features — the same matrix
		// every query passes in: the calibration batch of reduced-precision
		// plans, and the key under which the vault's public-half store keeps
		// their backbone embeddings after the first full-graph pass.
		if err := v.SetCalibrationFeatures(m.ds.X); err != nil {
			fmt.Fprintf(os.Stderr, "calibration features for %s failed: %v\n", m.info.ID, err)
			os.Exit(1)
		}
		if err := reg.Register(m.info.ID, v); err != nil {
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
// fleet and prints serving + scheduler statistics. With node-level
// serving enabled, every other request is a two-seed node query instead
// of a full-graph pass, exercising both paths through one queue.
func runSyntheticStream(fl *fleet, srv *serve.MultiServer, clients, requests int) {
	mix := ""
	if fl.nodeQueries {
		mix = " (50% node queries)"
	}
	fmt.Printf("synthetic stream: %d clients × %d requests across %d vaults%s\n",
		clients, requests, len(fl.vaults), mix)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				info := fl.vaults[(c+r)%len(fl.vaults)]
				// r alone picks the kind so the mix decorrelates from the
				// round-robin vault choice above.
				if fl.nodeQueries && r%2 == 1 {
					n := info.Nodes
					seeds := [2]int{(c*131 + r*17) % n, (c*257 + r*37 + 1) % n}
					if seeds[0] == seeds[1] {
						seeds[1] = (seeds[1] + 1) % n
					}
					if _, err := srv.PredictNodes(info.ID, seeds[:]); err != nil {
						errs <- fmt.Errorf("%s node query: %w", info.ID, err)
						return
					}
					continue
				}
				if _, err := srv.Predict(info.ID, fl.data[info.Dataset].X); err != nil {
					errs <- fmt.Errorf("%s: %w", info.ID, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintln(os.Stderr, "serving error:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

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
	fmt.Printf("  enclave     %d ECALLs, %.2f MB in, %.2f MB out, %d page swaps\n",
		rst.Ledger.ECalls, float64(rst.Ledger.BytesIn)/(1<<20),
		float64(rst.Ledger.BytesOut)/(1<<20), rst.Ledger.PageSwaps)
	fmt.Printf("  spill       %.2f MB streamed through untrusted scratch\n",
		float64(st.SpillBytes)/(1<<20))
	fmt.Printf("  backbone    %d full-graph passes computed it, %d reused the public-half store\n",
		st.BackboneComputed, st.BackboneReused)
	fmt.Printf("  EPC         %.2f MB used of %d MB\n",
		float64(rst.EPCUsed)/(1<<20), rst.EPCLimit>>20)
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
