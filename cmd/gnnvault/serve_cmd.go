package main

import (
	"errors"
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
	"gnnvault/internal/knob"
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

// serveOpts are the serve command's own options: what it trains and
// deploys, the enclaves it deploys into, and how it drives and observes
// the serving stack. Every other serve flag sets a library config.
type serveOpts struct {
	Dataset, Design, Sub, HTTP                                  string
	Epochs, Shards, Clients, Requests, Hops, Chaos, TraceBuffer int
	Seed, EPCMB, EPCBudgetMB                                    int64
	Metrics, Pprof                                              bool
}

// maxMB is the largest MB count whose byte count, MB << 20, fits an int64.
const maxMB = math.MaxInt64 >> 20

// serveOptKnobs declares the serve command's own options. An EPC below
// 1 MB would fail every deploy as "EPC exhausted"; the budget's 0 is its
// documented "untiled".
var serveOptKnobs = knob.Table[serveOpts]{
	{Field: "Dataset", Flag: "dataset", Default: "cora", Doc: "comma-separated built-in dataset names"},
	{Field: "Design", Flag: "design", Default: "parallel", Doc: "comma-separated rectifier designs: parallel|series|cascaded"},
	{Field: "Sub", Flag: "sub", Default: "knn", Doc: "substitute graph: knn|cosine|random|dnn"},
	{Field: "Epochs", Flag: "epochs", Range: knob.AtLeast(0), Default: 100, Doc: "training epochs"},
	{Field: "Seed", Flag: "seed", Range: knob.Any, Default: 1, Doc: "random seed"},
	{Field: "Shards", Flag: "shards", Range: knob.AtLeast(1), Default: 1, Doc: "shard the vault across this many enclaves: the private CSR splits at nnz-balanced row boundaries, each shard sealed in its own enclave with its own -epc-mb budget, coupled through halo-exchange SpMM (>1 requires a single dataset × design)"},
	{Field: "EPCMB", Flag: "epc-mb", Unit: "MB", Range: knob.Range{Min: 1, Max: maxMB}, Default: 96, Doc: "enclave EPC capacity in MB (lower it to force eviction churn)"},
	{Field: "EPCBudgetMB", Flag: "epc-budget-mb", Unit: "MB", Range: knob.Range{Min: 0, Max: maxMB}, Zero: "classic untiled plans", Doc: "per-workspace EPC budget in MB: plans execute tile-streamed under this bound"},
	{Field: "Clients", Flag: "clients", Range: knob.AtLeast(0), Default: 8, Doc: "concurrent synthetic clients"},
	{Field: "Requests", Flag: "requests", Range: knob.AtLeast(0), Default: 25, Doc: "requests per client"},
	{Field: "HTTP", Flag: "http", Doc: "serve the HTTP/JSON API on this address (e.g. :8080) instead of the synthetic stream"},
	{Field: "Hops", Flag: "hops", Range: knob.AtLeast(0), Zero: "full-graph only", Doc: "enable node-level serving with this L-hop expansion depth"},
	{Field: "Chaos", Flag: "chaos", Range: knob.AtLeast(0), Zero: "off", Doc: "inject this many seeded shard kills (alternating ECALL-abort storms and enclave loss) during the sharded synthetic stream and report breaker trips, restarts and time-to-recovery (requires -shards > 1, no -http)"},
	{Field: "Metrics", Flag: "metrics", Doc: "record flight-recorder spans (per-op, ECALL, plan/evict) into a live telemetry ring; implied by -trace-buffer"},
	{Field: "TraceBuffer", Flag: "trace-buffer", Range: knob.AtLeast(0), Zero: "4096 when -metrics is set, else tracing off", Doc: "span ring capacity behind GET /debug/trace"},
	{Field: "Pprof", Flag: "pprof", Doc: "mount net/http/pprof under /debug/pprof on the HTTP API"},
}

// serveConfig is everything gnnvault serve sets from its flags: its own
// options and one value of each library config type, every field a flag
// names bound straight to it.
type serveConfig struct {
	opts  serveOpts
	serve serve.Config
	limit serve.RateLimit
	reg   registry.Config
	nq    registry.NodeQueryConfig
}

// serveFlags registers every serve flag on a fresh flag set, from the
// knob tables of the config types they set.
func serveFlags() (*flag.FlagSet, *serveConfig) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	c := &serveConfig{nq: registry.NodeQueryConfig{Fanout: 10}}
	serveOptKnobs.Register(fs, &c.opts)
	serve.ConfigKnobs.Register(fs, &c.serve)
	serve.RateLimitKnobs.Register(fs, &c.limit)
	registry.ConfigKnobs.Register(fs, &c.reg)
	registry.NodeQueryKnobs.Register(fs, &c.nq)
	core.PlanKnobs.Register(fs, &c.reg.Plan)
	return fs, c
}

// validate copies the command's own options into the library configs
// they shape — the seed, the EPC budget and, with -hops > 0, the
// node-query geometry — then validates every config, and the options
// that only apply together.
func (c *serveConfig) validate() error {
	o := &c.opts
	c.serve.Seed = o.Seed
	c.reg.Plan.EPCBudgetBytes = o.EPCBudgetMB << 20
	if o.Hops > 0 {
		c.nq.Hops, c.nq.Seed = o.Hops, uint64(o.Seed)
		c.reg.NodeQuery = &c.nq
	}
	for _, err := range []error{serveOptKnobs.Check(*o), c.serve.Validate(), c.limit.Validate(), c.reg.Validate()} {
		if err != nil {
			return err
		}
	}
	switch {
	case o.Shards > 1 && (len(splitCSV(o.Dataset)) != 1 || len(splitCSV(o.Design)) != 1):
		return errors.New("-shards > 1 serves a single dataset × design pair")
	case o.Shards == 1 && (c.serve.MaxRetries > 0 || o.Chaos > 0):
		return errors.New("-max-retries and -chaos apply to a shard fleet; set -shards > 1")
	case o.Chaos > 0 && o.HTTP != "":
		return errors.New("-chaos drives the synthetic stream; it cannot be combined with -http")
	}
	return nil
}

// cmdServe trains and deploys a fleet of vaults — every requested dataset ×
// design pair — into one shared enclave behind the EPC-aware registry, or
// with -shards > 1 one pair across a multi-enclave shard fleet registered
// as one registry entry, then serves label queries through the routed
// worker pool: either a synthetic concurrent stream (default) or an
// HTTP/JSON API (-http). Lowering -epc-mb below the fleet's working set
// makes the scheduler's plan/evict churn visible in the reported stats.
func cmdServe(args []string) {
	fs, c := serveFlags()
	fs.Parse(args) //nolint:errcheck
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	o := &c.opts
	// The flight-recorder ring doubles as the live span recorder for every
	// layer below: plan/evict events, per-query ECALL spans and per-op tile
	// timings all land in one buffer that /debug/trace reads back out.
	var ring *obs.Ring
	if o.Metrics || o.TraceBuffer > 0 {
		capacity := o.TraceBuffer
		if capacity == 0 {
			capacity = 4096
		}
		ring = obs.NewRing(capacity)
		c.reg.Recorder = ring
	}
	// -chaos reports per-outage recovery times from the fault/recover
	// spans, so it gets a trace ring even when -metrics is off.
	if ring == nil && o.Chaos > 0 {
		ring = obs.NewRing(256)
	}
	fl := buildFleet(o, c.reg)
	c.serve.Trace = ring
	srv := serve.NewMulti(fl.reg, c.serve)
	defer func() {
		srv.Close()
		fl.reg.Close()
		if fl.sv != nil {
			fl.sv.Undeploy()
		}
	}()
	var limit *serve.RateLimit
	if c.limit.PerSec > 0 || c.limit.Budget > 0 {
		limit = &c.limit
	}

	mode := "untiled workspaces"
	if o.EPCBudgetMB > 0 {
		mode = fmt.Sprintf("tiled workspaces ≤ %d MB each", o.EPCBudgetMB)
	}
	if c.reg.Plan.Precision != core.PrecisionFP64 {
		mode += ", " + c.reg.Plan.Precision.String() + " enclave kernels"
	}
	if fl.sv != nil {
		bounds := fl.sv.Bounds()
		fmt.Printf("shard fleet: %d enclaves (EPC %d MB each), rows cut at %v, %d workers, %s\n",
			fl.sv.Shards(), o.EPCMB, bounds, c.serve.Workers, mode)
		for i := 0; i < fl.sv.Shards(); i++ {
			fmt.Printf("  shard %d: rows %d, %.2f MB EPC used\n",
				i, bounds[i+1]-bounds[i], float64(fl.sv.Shard(i).Enclave.EPCUsed())/(1<<20))
		}
	} else {
		fmt.Printf("fleet of %d vaults on one enclave (EPC %.2f MB used of %d MB), %d workers, %s\n",
			len(fl.vaults), float64(fl.encl.EPCUsed())/(1<<20), fl.encl.EPCLimit()>>20, c.serve.Workers, mode)
	}

	if o.HTTP != "" {
		listenAPI(o.HTTP, serve.NewAPI(srv, fl.reg, apiConfig(fl, limit, c.reg.Plan.Precision.String(), ring, o.Pprof)), ring, o.Pprof)
		return
	}
	runSyntheticStream(fl, srv, o.Clients, o.Requests, o.Chaos, o.Seed, ring)
}

// buildFleet trains one backbone per o.Dataset and one rectifier per
// dataset × o.Design pair, then deploys every pair into a single enclave
// measured over all rectifier identities — or, with o.Shards > 1, the one
// pair across a shard fleet, every shard its own enclave of o.EPCMB,
// registered as one entry of an enclave-less registry. cfg configures the
// registry: its Plan shapes every workspace it admits (EPC budget → tiled
// streaming; per shard on a fleet), and a non-nil NodeQuery additionally
// enables node-level (subgraph) serving on every GNN-backed vault.
func buildFleet(o *serveOpts, cfg registry.Config) *fleet {
	dsNames := splitCSV(o.Dataset)
	designs := splitCSV(o.Design)
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
		train := core.TrainConfig{Epochs: o.Epochs, LR: 0.01, WeightDecay: 5e-4, Seed: o.Seed}
		spec := core.SpecForDataset(name)
		kind := substitute.Kind(o.Sub)
		subGraph := substitute.Build(kind, ds.X, 2, ds.Graph.NumUndirectedEdges(), o.Seed)
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
	cost.EPCBytes = o.EPCMB << 20 // per shard on a fleet: each enclave has its own EPC
	fl := &fleet{data: data, nodeQueries: cfg.NodeQuery != nil}
	if o.Shards > 1 {
		m := fleetMembers[0]
		sv, err := core.DeploySharded(m.bb, m.rec, m.ds.Graph, cost, o.Shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sharded deploy failed: %v\n", err)
			os.Exit(1)
		}
		fl.sv = sv
	} else {
		fl.encl = enclave.New(cost, identities...)
	}
	reg := registry.New(fl.encl, cfg)
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
		if fl.nodeQueries {
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
