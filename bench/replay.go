package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"gnnvault/internal/exec"
	"gnnvault/internal/obs"
)

// The traced replay. Tracing inside the program is a later issue, so the
// per-layer numbers come from re-issuing the window's own stream-drawn
// requests, one at a time, at successive depths, with a bench-side span
// around each call:
//
//	request          HTTP round trip to the served (untraced) stack
//	└ serve.api      the same request through API.Predict in-process, on a
//	                 second untraced stack of its own
//	  ├ registry.acquire   Acquire+Release on the probe registry
//	  │ └ core.plan        (SpanPlan records of the program's recorder)
//	  └ core.predict       PredictInto on the probe deployment
//	    ├ core.backbone    InferenceBreakdown.BackboneTime
//	    │ ├ subgraph.*     SpanExpand / SpanInduce records (node queries)
//	    │ └ exec.op.*      SpanOp records under the backbone stage
//	    └ core.ecall       predict − backbone
//	      └ exec.op.* / exec.shard ⊃ exec.op.*   SpanOp records per ECALL
//
// plus, beside each node query's tree, the bench's own sibling extraction
// probes (probe.subgraph.expand/induce/gather).
//
// Every depth has a deployment of its own, so each sees every request
// exactly once and in the same order — on vault_churn a second call for
// the same vault would find the workspace the first one planned. The
// three outer depths are therefore separate executions of one request,
// and a child is laid out centred inside its parent; everything inside
// core.predict is one real execution and keeps its recorded offsets.

// maxTraceRequests bounds the trace file; every replayed request still
// feeds the medians.
const maxTraceRequests = 300

type traceFile struct {
	Env              env    `json:"env"`
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	RequestsReplayed int    `json:"requests_replayed"`
	RequestsWritten  int    `json:"requests_written"`
	Spans            []span `json:"spans"`
}

// spanLayer attributes a span's self time to a layer.
func spanLayer(name string) string {
	switch {
	case name == "request" || name == "serve.api":
		return "serve"
	case name == "registry.acquire":
		return "registry"
	case name == "core.plan" || name == "core.predict":
		return "core"
	case strings.HasPrefix(name, "subgraph."):
		return "subgraph"
	case name == "exec.op.matmul":
		return "mat"
	case name == "exec.op.spmm":
		return "graph"
	default: // core.backbone, core.ecall, exec.shard, other ops
		return "exec"
	}
}

// replayed is what one replayed request measured, by depth.
type replayed struct {
	httpNs, tracedNs, apiNs int64
	p                       probeSample
	opNs                    map[string]float64 // op kind → ns, shard ops averaged over shards
	ringNormalNs            int64              // recorder's expand+induce+backbone spans
	ecallNs                 int64              // recorder's (longest) ECALL span
	shares                  map[string]float64 // layer → share of the request span
	closure                 float64
}

// tracedReplay runs the replay phase and fills rep.PerLayer,
// rep.LayerShares and the trace file.
func tracedReplay(rep *report, st *stack, w *workload, fx *fixture, win *loadResult, o runOptions) error {
	vals := map[string]float64{}
	kernelProbes(w, fx, vals)
	if err := planProbes(w, fx, vals); err != nil {
		return err
	}

	ringT := obs.NewRing(4096)
	stT, err := standUp(w, fx, ringT, o.Wrap)
	if err != nil {
		return fmt.Errorf("traced stack: %w", err)
	}
	defer stT.close()
	if err := firstAnswers(stT, w, fx, o.Seed); err != nil {
		return fmt.Errorf("traced stack: %w", err)
	}
	stAPI, err := standUp(w, fx, nil, nil)
	if err != nil {
		return fmt.Errorf("in-process stack: %w", err)
	}
	defer stAPI.close()
	pr, err := newProbe(w, fx)
	if err != nil {
		return err
	}
	defer pr.close()
	if pr.sv != nil {
		vals["core.plan_sharded_ms"] = timeMedian(3, probeBudget, func() { err = errors.Join(err, pr.planSharded()) })
		if err != nil {
			return err
		}
		vals["exec.halo_mb_per_run"] = float64(pr.sws.HaloBytes()) / 1e6
	}

	clA, clT := newClient(st.URL), newClient(stT.URL)
	defer clA.close()
	defer clT.close()
	str := newStream(w, fx, o.Seed, 0)
	var (
		counts   phaseCounts
		runs     []replayed
		spans    []span
		negative int
		nextID   uint64
		epoch    = time.Now()
	)
	fail := func(err error) {
		counts.Failed++
		rep.problem("replay: %v", err)
	}
	// The first iterations pay lazy plans and cold paths at every depth;
	// they run but are not recorded: at least three, and everything in
	// the first tenth of the replay.
	const discard = 3
	deadline := epoch.Add(secs(rep.Windows.Replay))
	warm := epoch.Add(secs(rep.Windows.Replay / 10))
	for i := 0; i < 2*discard || time.Now().Before(deadline); i++ {
		r := str.Next()
		ref := fx.model(r.Vault).Ref
		var run replayed

		// The untraced and traced round trips swap places every
		// iteration, so neither always runs first after the probe.
		var a, t reply
		var errA, errT error
		start := time.Now()
		if i%2 == 0 {
			a, errA = clA.do(&r)
			t, errT = clT.do(&r)
		} else {
			t, errT = clT.do(&r)
			start = time.Now()
			a, errA = clA.do(&r)
		}
		counts.Sent += 2
		if err := errors.Join(errA, errT); err != nil {
			fail(err)
			continue
		}
		if _, _, err := agreement(ref, r.Nodes, a.Labels); err != nil {
			fail(err)
			continue
		}
		run.httpNs, run.tracedNs = a.Latency.Nanoseconds(), t.Latency.Nanoseconds()

		t0 := time.Now()
		var labels []int
		var err error
		if w.NodeQuery != nil {
			labels, err = stAPI.API.PredictNodes("bench", r.Vault, r.Nodes)
		} else {
			labels, err = stAPI.API.Predict("bench", r.Vault, r.Nodes)
		}
		run.apiNs = time.Since(t0).Nanoseconds()
		if err != nil {
			fail(fmt.Errorf("serve.api: %w", err))
			continue
		}
		if run.p, err = pr.run(&r); err != nil {
			fail(fmt.Errorf("core.predict: %w", err))
			continue
		}
		// One answer at every depth: in-process == HTTP == direct core.
		if !slices.Equal(labels, a.Labels) || !slices.Equal(run.p.Labels, a.Labels) || !slices.Equal(t.Labels, a.Labels) {
			fail(fmt.Errorf("%s %s %v: depths disagree: http %v, traced %v, api %v, core %v", r.Path, r.Vault, r.Nodes, a.Labels, t.Labels, labels, run.p.Labels))
			continue
		}
		counts.Succeeded += 2
		if i < discard || time.Now().Before(warm) {
			continue
		}

		tree := buildTree(&run, uint64(len(runs)+1), &nextID, start.Sub(epoch).Nanoseconds(), w.Shards)
		self, neg := selfTimes(tree.spans)
		negative += neg
		run.shares = map[string]float64{}
		var sum float64
		for _, s := range tree.spans {
			d := float64(self[s.ID]) * tree.weight[s.ID] // weight 0: beside the tree
			run.shares[spanLayer(s.Name)] += d / float64(run.httpNs)
			sum += d
		}
		run.closure = sum / float64(run.httpNs)
		if len(runs) < maxTraceRequests {
			spans = append(spans, tree.spans...)
		}
		runs = append(runs, run)
	}
	rep.Phases["replay"] = counts
	if len(runs) == 0 {
		return fmt.Errorf("no request replayed")
	}

	col := func(f func(*replayed) float64) float64 {
		xs := make([]float64, len(runs))
		for i := range runs {
			xs[i] = f(&runs[i])
		}
		return median(xs)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	vals["serve.api_ms"] = col(func(r *replayed) float64 { return ms(r.apiNs) })
	vals["serve.http_ms"] = col(func(r *replayed) float64 { return ms(r.httpNs - r.apiNs) })
	vals["serve.dispatch_ms"] = col(func(r *replayed) float64 { return ms(r.apiNs - r.p.AcquireNs - r.p.PredictNs) })
	vals["registry.acquire_ms"] = col(func(r *replayed) float64 { return ms(r.p.AcquireNs) })
	vals["core.predict_ms"] = col(func(r *replayed) float64 { return ms(r.p.PredictNs) })
	vals["core.backbone_ms"] = col(func(r *replayed) float64 { return ms(r.p.BackboneNs) })
	vals["core.ecall_ms"] = col(func(r *replayed) float64 { return ms(r.p.PredictNs - r.p.BackboneNs) })
	for _, k := range []string{"matmul", "spmm", "halo", "other"} {
		vals["exec.op_ms."+k] = col(func(r *replayed) float64 { return r.opNs[k] / 1e6 })
	}
	if w.Shards > 1 {
		vals["exec.shard_busy_ms"] = col(func(r *replayed) float64 { return ms(r.p.ShardBusyNs) })
		vals["exec.shard_wait_ms"] = col(func(r *replayed) float64 { return ms(r.ecallNs - r.p.ShardBusyNs) })
	}
	if w.NodeQuery != nil {
		vals["subgraph.expand_ms"] = col(func(r *replayed) float64 { return ms(r.p.ExpandNs) })
		vals["subgraph.induce_ms"] = col(func(r *replayed) float64 { return ms(r.p.InduceNs) })
		vals["subgraph.gather_ms"] = col(func(r *replayed) float64 { return ms(r.p.GatherNs) })
		vals["subgraph.nodes_per_extract"] = col(func(r *replayed) float64 { return float64(r.p.SubNodes) })
		vals["subgraph.edges_per_extract"] = col(func(r *replayed) float64 { return float64(r.p.SubEdges) })
	}
	var untraced, traced float64
	for i := range runs {
		untraced += float64(runs[i].httpNs)
		traced += float64(runs[i].tracedNs)
	}
	// Throughput of a one-at-a-time replay is requests / Σ latency, so
	// (untraced − traced) / untraced throughput is 1 − Σuntraced/Σtraced.
	vals["obs.trace_overhead_share"] = 1 - untraced/traced
	vals["replay.requests"] = float64(len(runs))
	vals["replay.negative_self"] = float64(negative)
	vals["replay.closure_share"] = col(func(r *replayed) float64 { return r.closure })
	if c := vals["replay.closure_share"]; c < 0.9 || c > 1.1 {
		rep.warn("replay: self times sum to %.3f of the request span at the median (want within 10%%)", c)
	}
	// The program's own recorder must agree with InferenceBreakdown on
	// the normal-world time.
	if ratio := col(func(r *replayed) float64 { return float64(r.ringNormalNs) / float64(r.p.BackboneNs) }); ratio < 0.9 || ratio > 1.1 {
		rep.warn("replay: recorder's normal-world spans are %.3f of InferenceBreakdown.BackboneTime at the median (want within 10%%)", ratio)
	}

	windowCounts(vals, st, win)
	vals["nn.train_s"], vals["datasets.generate_s"] = fx.TrainS, fx.GenerateS
	vals["host.speed_factor"] = win.hostFactor()

	rep.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		rep.PerLayer[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	rep.LayerShares = map[string]layerShare{}
	best := -1.0
	for _, l := range layers {
		share := col(func(r *replayed) float64 { return r.shares[l] })
		rep.LayerShares[l] = layerShare{Predicted: w.Predicted[l], Measured: share}
		if share > best {
			best, rep.DominantLayer = share, l
		}
	}
	return writeJSON(w.Name+".trace.json", traceFile{
		Env: rep.Env, Workload: w.Name, Seed: o.Seed,
		RequestsReplayed: len(runs), RequestsWritten: min(len(runs), maxTraceRequests), Spans: spans,
	})
}

// windowCounts fills the per-layer metrics that are counted over the
// untraced two-client window rather than timed in the replay.
func windowCounts(vals map[string]float64, st *stack, win *loadResult) {
	n := float64(win.Counts.Succeeded)
	l := win.Ledger
	vals["enclave.ecalls_per_req"] = float64(l.ECalls) / n
	vals["enclave.ocalls_per_req"] = float64(l.OCalls) / n
	vals["enclave.transition_ms_per_req"] = float64(l.TransitionNs) / 1e6 / n
	vals["enclave.transfer_ms_per_req"] = float64(l.TransferNs) / 1e6 / n
	vals["enclave.compute_ms_per_req"] = float64(l.ComputeNs) / 1e6 / n
	vals["enclave.paging_ms_per_req"] = float64(l.PagingNs) / 1e6 / n
	vals["enclave.alloc_failures"] = float64(l.AllocFailures)
	vals["serve.resp_bytes"] = median(win.RespBytes)
	vals["serve.errors"] = float64(win.PoolErrors)
	vals["serve.avg_batch"] = win.AvgBatch
	vals["serve.pool_p50_ms"] = float64(st.poolStats().P50Latency.Nanoseconds()) / 1e6
	// What the two-client load adds to a request that the one-at-a-time
	// replay cannot see: waiting for a worker, for a workspace the other
	// worker holds (Acquire blocks while the EPC is full), for the cores.
	vals["serve.load_delay_ms"] = vals["serve.pool_p50_ms"] - vals["serve.api_ms"]
	if st.reg != nil {
		vals["registry.plans_per_req"] = float64(win.Plans) / n
		vals["registry.evictions_per_req"] = float64(win.Evictions) / n
		vals["registry.hit_share"] = 1 - float64(win.Plans)/n
		vals["registry.epc_used_mb"] = float64(st.reg.Stats().EPCUsed) / (1 << 20)
	}
	if st.sharded != nil {
		fanout := st.sharded.ShardStats().Fanout
		vals["serve.fanout_p50_ms"] = float64(fanout.Quantile(0.5)) / 1e6
	}
}

// tree is one replayed request's spans with the weight each span's self
// time carries: 1, or 1/shards for the concurrent per-shard subtrees, so
// that a fleet request's self times still sum to its wall time (the mean
// shard's view) instead of to the fleet's total CPU.
type tree struct {
	spans  []span
	weight map[uint64]float64
}

// buildTree lays one replayed request out as a span tree starting at
// startNs, and folds the flight recorder's spans under core.predict.
func buildTree(run *replayed, trace uint64, nextID *uint64, startNs int64, shards int) tree {
	t := tree{weight: map[uint64]float64{}}
	add := func(parent uint64, name string, lo, hi int64, weight float64) uint64 {
		*nextID++
		t.spans = append(t.spans, span{Trace: trace, ID: *nextID, Parent: parent, Name: name, StartNs: lo, EndNs: hi, Replayed: true})
		t.weight[*nextID] = weight
		return *nextID
	}
	centre := func(lo, hi, inner int64) int64 {
		if pad := (hi - lo - inner) / 2; pad > 0 {
			return lo + pad
		}
		return lo
	}
	p := &run.p
	req := add(0, "request", startNs, startNs+run.httpNs, 1)
	apiLo := centre(startNs, startNs+run.httpNs, run.apiNs)
	api := add(req, "serve.api", apiLo, apiLo+run.apiNs, 1)
	cur := centre(apiLo, apiLo+run.apiNs, p.AcquireNs+p.PredictNs)
	if p.AcquireNs > 0 {
		acq := add(api, "registry.acquire", cur, cur+p.AcquireNs, 1)
		at := cur
		for _, s := range p.Spans {
			if s.Kind == obs.SpanPlan {
				add(acq, "core.plan", at, at+s.Dur, 1)
				at += s.Dur
			}
		}
		cur += p.AcquireNs
	}
	predLo := cur
	pred := add(api, "core.predict", predLo, predLo+p.PredictNs, 1)
	bb := add(pred, "core.backbone", predLo, predLo+p.BackboneNs, 1)
	ec := add(pred, "core.ecall", predLo+p.BackboneNs, predLo+p.PredictNs, 1)
	// The bench's own extraction is a re-execution, not part of this
	// request: it sits beside the tree, after it.
	at := startNs + run.httpNs
	for _, sub := range []struct {
		name string
		ns   int64
	}{{"probe.subgraph.expand", p.ExpandNs}, {"probe.subgraph.induce", p.InduceNs}, {"probe.subgraph.gather", p.GatherNs}} {
		if sub.ns > 0 {
			add(0, sub.name, at, at+sub.ns, 0)
			at += sub.ns
		}
	}

	// Fold the program's recorder spans. Stage spans tell which bench
	// span an op belongs under; ops keep their recorded offsets from the
	// predict call.
	parentOf := map[uint64]uint64{} // recorder span ID → bench span ID
	shardW := 1.0
	if shards > 1 {
		shardW = 1 / float64(shards)
	}
	for _, s := range p.Spans {
		lo := predLo + s.Start - p.RingT1
		switch s.Kind {
		case obs.SpanExpand:
			run.ringNormalNs += s.Dur
			add(bb, "subgraph.expand", lo, lo+s.Dur, 1)
		case obs.SpanInduce: // public sub-CSR induction + feature gather
			run.ringNormalNs += s.Dur
			add(bb, "subgraph.induce", lo, lo+s.Dur, 1)
		case obs.SpanInducePrivate:
			add(ec, "subgraph.induce_private", lo, lo+s.Dur, 1)
		case obs.SpanBackbone:
			run.ringNormalNs += s.Dur
			parentOf[s.ID] = bb
		case obs.SpanNodeQuery:
			parentOf[s.ID] = bb // node-path backbone ops hang off the query root
		case obs.SpanECall:
			if s.Dur > run.ecallNs {
				run.ecallNs = s.Dur
			}
			if shards > 1 {
				parentOf[s.ID] = add(ec, "exec.shard", lo, lo+s.Dur, shardW)
			} else {
				parentOf[s.ID] = ec
			}
		}
	}
	run.opNs = map[string]float64{}
	for _, s := range p.Spans {
		if s.Kind != obs.SpanOp {
			continue
		}
		parent, ok := parentOf[s.Parent]
		if !ok {
			continue
		}
		kind := exec.OpKind(s.Op).String()
		weight := t.weight[parent]
		lo := predLo + s.Start - p.RingT1
		add(parent, "exec.op."+kind, lo, lo+s.Dur, weight)
		if kind != "matmul" && kind != "spmm" && kind != "halo" {
			kind = "other"
		}
		run.opNs[kind] += float64(s.Dur) * weight
	}
	return t
}
