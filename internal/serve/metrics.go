package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
	"gnnvault/internal/obs"
)

// The /metrics vocabulary. Every name listed here must be documented in
// README.md ("Metrics reference") — cmd/doclint cross-checks the two, so
// adding a metric without documenting it fails CI.
const (
	// API layer: one histogram family per endpoint × vault × precision,
	// plus per-vault error and throttle counters.
	mRequestSeconds = "gnnvault_request_seconds"
	mRequestErrors  = "gnnvault_request_errors_total"
	mRateLimited    = "gnnvault_rate_limited_total"

	// Worker pool: queue-to-answer accounting shared by both endpoints.
	mServeRequests  = "gnnvault_serve_requests_total"
	mServeCompleted = "gnnvault_serve_completed_total"
	mServeErrors    = "gnnvault_serve_errors_total"
	mServeBatches   = "gnnvault_serve_batches_total"
	mServeLatency   = "gnnvault_serve_latency_seconds"
	mSpillBytes     = "gnnvault_spill_bytes_total"
	mBackbonePasses = "gnnvault_backbone_passes_total"

	// Registry scheduler: residency and plan/evict churn.
	mVaultResident = "gnnvault_vault_resident"
	mPlans         = "gnnvault_plans_total"
	mEvictions     = "gnnvault_evictions_total"

	// Enclave: EPC occupancy gauges and the transition ledger.
	mEPCUsed   = "gnnvault_epc_used_bytes"
	mEPCFree   = "gnnvault_epc_free_bytes"
	mEPCLimit  = "gnnvault_epc_limit_bytes"
	mECalls    = "gnnvault_ecalls_total"
	mOCalls    = "gnnvault_ocalls_total"
	mBytesIn   = "gnnvault_ecall_bytes_in_total"
	mBytesOut  = "gnnvault_ecall_bytes_out_total"
	mPageSwaps = "gnnvault_page_swaps_total"

	// Shard fleets: per-shard halo traffic and EPC occupancy, plus the
	// full-graph fan-out latency distribution, labelled by fleet and shard.
	mHaloBytes    = "gnnvault_halo_bytes_total"
	mShardEPCUsed = "gnnvault_shard_epc_used_bytes"
	mShardFanout  = "gnnvault_shard_fanout_seconds"

	// Fault tolerance: per-shard breaker and recovery state, plus the
	// degradation and deadline counters.
	mShardRestarts    = "gnnvault_shard_restarts_total"
	mBreakerState     = "gnnvault_breaker_state"
	mDegraded         = "gnnvault_requests_degraded_total"
	mDeadlineExceeded = "gnnvault_deadline_exceeded_total"
)

// Endpoint label values.
const (
	epPredict      = "predict"
	epPredictNodes = "predict_nodes"
)

// nsToSeconds converts recorded nanosecond samples to the seconds
// Prometheus histogram conventions expect.
const nsToSeconds = 1e-9

// vaultMetrics is one fleet member's API-layer instrumentation:
// per-endpoint request latency histograms plus error and rate-limit
// counters. All fields are atomics; observing never allocates.
type vaultMetrics struct {
	predict     obs.Histogram // full-graph request latency, ns
	predictNode obs.Histogram // node-query request latency, ns
	errors      obs.Counter   // failed requests (any cause)
	rateLimited obs.Counter   // failures that were throttles
}

// observeReq records one API request's latency and outcome against its
// vault's metrics. Unknown vault IDs have no metrics entry (the request
// died at lookup); they are skipped rather than aggregated into a
// catch-all that would mask the fleet catalog.
func (a *API) observeReq(vault, endpoint string, start time.Time, err error) {
	vm := a.vm[vault]
	if vm == nil {
		return
	}
	lat := time.Since(start).Nanoseconds()
	if endpoint == epPredictNodes {
		vm.predictNode.Observe(lat)
	} else {
		vm.predict.Observe(lat)
	}
	if err != nil {
		vm.errors.Inc()
		if errors.Is(err, ErrRateLimited) {
			vm.rateLimited.Inc()
		}
	}
}

// handleMetrics renders the whole serving stack in Prometheus text
// exposition format: API request histograms, worker-pool counters,
// registry residency and enclave ledger — one scrape, no client library.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	ids := make([]string, 0, len(a.cfg.Vaults))
	for _, v := range a.cfg.Vaults {
		ids = append(ids, v.ID)
	}
	sort.Strings(ids)

	obs.WriteHeader(w, mRequestSeconds, "histogram", "API request latency by endpoint, vault and precision.")
	for _, id := range ids {
		vm := a.vm[id]
		obs.WriteHistogram(w, mRequestSeconds,
			[]obs.Label{{Name: "endpoint", Value: epPredict}, {Name: "vault", Value: id}, {Name: "precision", Value: a.precision}},
			vm.predict.Snapshot(), nsToSeconds)
		obs.WriteHistogram(w, mRequestSeconds,
			[]obs.Label{{Name: "endpoint", Value: epPredictNodes}, {Name: "vault", Value: id}, {Name: "precision", Value: a.precision}},
			vm.predictNode.Snapshot(), nsToSeconds)
	}
	obs.WriteHeader(w, mRequestErrors, "counter", "Failed API requests by vault.")
	for _, id := range ids {
		obs.WriteSample(w, mRequestErrors, []obs.Label{{Name: "vault", Value: id}}, float64(a.vm[id].errors.Load()))
	}
	obs.WriteHeader(w, mRateLimited, "counter", "API requests rejected by the rate limiter, by vault.")
	for _, id := range ids {
		obs.WriteSample(w, mRateLimited, []obs.Label{{Name: "vault", Value: id}}, float64(a.vm[id].rateLimited.Load()))
	}

	st := a.srv.Stats()
	obs.WriteHeader(w, mServeRequests, "counter", "Requests accepted by the worker pool.")
	obs.WriteSample(w, mServeRequests, nil, float64(st.Requests))
	obs.WriteHeader(w, mServeCompleted, "counter", "Requests answered successfully by the worker pool.")
	obs.WriteSample(w, mServeCompleted, nil, float64(st.Completed))
	obs.WriteHeader(w, mServeErrors, "counter", "Requests answered with an error by the worker pool.")
	obs.WriteSample(w, mServeErrors, nil, float64(st.Errors))
	obs.WriteHeader(w, mServeBatches, "counter", "Worker wake-ups (micro-batches).")
	obs.WriteSample(w, mServeBatches, nil, float64(st.Batches))
	obs.WriteHeader(w, mServeLatency, "histogram", "Enqueue-to-answer latency by endpoint family.")
	obs.WriteHistogram(w, mServeLatency, []obs.Label{{Name: "endpoint", Value: epPredict}}, st.FullLatency, nsToSeconds)
	obs.WriteHistogram(w, mServeLatency, []obs.Label{{Name: "endpoint", Value: epPredictNodes}}, st.NodeLatency, nsToSeconds)
	obs.WriteHeader(w, mSpillBytes, "counter", "Modelled tile-flush traffic of answered full-graph requests.")
	obs.WriteSample(w, mSpillBytes, nil, float64(st.SpillBytes))
	obs.WriteHeader(w, mBackbonePasses, "counter", "Answered full-graph passes by what they did for the public half: ran the backbone (computed) or read the vault's public-half store (reused).")
	obs.WriteSample(w, mBackbonePasses, []obs.Label{{Name: "result", Value: "computed"}}, float64(st.BackboneComputed))
	obs.WriteSample(w, mBackbonePasses, []obs.Label{{Name: "result", Value: "reused"}}, float64(st.BackboneReused))

	rst := a.reg.Stats()
	obs.WriteHeader(w, mVaultResident, "gauge", "Whether the vault currently holds workspace EPC (1) or not (0).")
	for _, vs := range rst.PerVault {
		val := 0.0
		if vs.Resident {
			val = 1
		}
		obs.WriteSample(w, mVaultResident, []obs.Label{{Name: "vault", Value: vs.ID}}, val)
	}
	obs.WriteHeader(w, mPlans, "counter", "Cold-start workspace plans across the fleet.")
	obs.WriteSample(w, mPlans, nil, float64(rst.Plans))
	obs.WriteHeader(w, mEvictions, "counter", "Workspaces evicted to admit other vaults.")
	obs.WriteSample(w, mEvictions, nil, float64(rst.Evictions))
	writeEnclaveGauges(w, rst.EPCUsed, rst.EPCFree, rst.EPCLimit, rst.Ledger)

	fleets := a.fleetStats()
	perShard := func(name, typ, help string, val func(sst ShardStats, i int) float64) {
		obs.WriteHeader(w, name, typ, help)
		for _, id := range ids {
			sst, ok := fleets[id]
			for i := 0; ok && i < sst.Shards; i++ {
				obs.WriteSample(w, name, []obs.Label{{Name: "vault", Value: id}, {Name: "shard", Value: strconv.Itoa(i)}}, val(sst, i))
			}
		}
	}
	perShard(mHaloBytes, "counter", "Boundary-activation bytes gathered across shard enclaves, by fleet and shard.",
		func(sst ShardStats, i int) float64 { return float64(sst.HaloBytes[i]) })
	perShard(mShardEPCUsed, "gauge", "Enclave Page Cache bytes charged per shard enclave.",
		func(sst ShardStats, i int) float64 { return float64(sst.EPCUsed[i]) })
	obs.WriteHeader(w, mShardFanout, "histogram", "Full-graph fan-out wall time across a shard fleet.")
	for _, id := range ids {
		if sst, ok := fleets[id]; ok {
			obs.WriteHistogram(w, mShardFanout, []obs.Label{{Name: "vault", Value: id}}, sst.Fanout, nsToSeconds)
		}
	}
	perShard(mShardRestarts, "counter", "Successful automatic shard recoveries (drain, re-seal, re-plan), by fleet and shard.",
		func(sst ShardStats, i int) float64 { return float64(sst.Restarts[i]) })
	perShard(mBreakerState, "gauge", "Per-shard circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func(sst ShardStats, i int) float64 { return float64(sst.Breaker[i]) })
	obs.WriteHeader(w, mDegraded, "counter", "Node queries answered successfully while some shard was offline.")
	obs.WriteSample(w, mDegraded, nil, float64(st.Degraded))
	obs.WriteHeader(w, mDeadlineExceeded, "counter", "Requests that failed their serving deadline (queued or mid-pass).")
	obs.WriteSample(w, mDeadlineExceeded, nil, float64(st.DeadlineExceeded))
}

// writeEnclaveGauges renders the EPC occupancy gauges and transition
// ledger counters, summed over the registry's enclave and every fleet's
// shard enclaves.
func writeEnclaveGauges(w http.ResponseWriter, used, free, limit int64, led enclave.Ledger) {
	obs.WriteHeader(w, mEPCUsed, "gauge", "Enclave Page Cache bytes currently charged.")
	obs.WriteSample(w, mEPCUsed, nil, float64(used))
	obs.WriteHeader(w, mEPCFree, "gauge", "Enclave Page Cache headroom before the next plan must evict.")
	obs.WriteSample(w, mEPCFree, nil, float64(free))
	obs.WriteHeader(w, mEPCLimit, "gauge", "Enclave Page Cache capacity.")
	obs.WriteSample(w, mEPCLimit, nil, float64(limit))
	obs.WriteHeader(w, mECalls, "counter", "Modelled world switches into the enclave.")
	obs.WriteSample(w, mECalls, nil, float64(led.ECalls))
	obs.WriteHeader(w, mOCalls, "counter", "Modelled world switches out of the enclave.")
	obs.WriteSample(w, mOCalls, nil, float64(led.OCalls))
	obs.WriteHeader(w, mBytesIn, "counter", "ECALL payload bytes crossing into the enclave (embeddings not already held, spill and halo).")
	obs.WriteSample(w, mBytesIn, nil, float64(led.BytesIn))
	obs.WriteHeader(w, mBytesOut, "counter", "ECALL result bytes crossing out of the enclave.")
	obs.WriteSample(w, mBytesOut, nil, float64(led.BytesOut))
	obs.WriteHeader(w, mPageSwaps, "counter", "Modelled EPC page swaps.")
	obs.WriteSample(w, mPageSwaps, nil, float64(led.PageSwaps))
}

// --- /debug/trace ---------------------------------------------------------

// traceSpan is one node of a rendered span tree.
type traceSpan struct {
	Kind     string       `json:"kind"`
	Op       string       `json:"op,omitempty"`
	Rows     int32        `json:"rows,omitempty"`
	Tiles    int32        `json:"tiles,omitempty"`
	Bytes    int64        `json:"bytes,omitempty"`
	StartUS  float64      `json:"start_us"`
	DurUS    float64      `json:"dur_us"`
	Children []*traceSpan `json:"children,omitempty"`
}

// traceTree is one query's span tree (trace root plus nested stages).
type traceTree struct {
	Trace uint64     `json:"trace"`
	Root  *traceSpan `json:"root"`
}

// traceResponse is the GET /debug/trace payload: the last n spans of the
// flight recorder, reassembled into per-query trees, plus trace-less
// scheduler events (plans, evictions).
type traceResponse struct {
	Capacity int          `json:"capacity"`
	Recorded int          `json:"recorded"`
	Traces   []*traceTree `json:"traces"`
	Events   []*traceSpan `json:"events,omitempty"`
}

// renderSpan converts a recorded span to its JSON form.
func renderSpan(s obs.Span) *traceSpan {
	t := &traceSpan{
		Kind:    s.Kind.String(),
		Rows:    s.Rows,
		Tiles:   s.Tiles,
		Bytes:   s.Bytes,
		StartUS: float64(s.Start) / 1e3,
		DurUS:   float64(s.Dur) / 1e3,
	}
	switch {
	case s.Kind == obs.SpanOp:
		t.Op = exec.OpKind(s.Op).String()
	case s.Kind == obs.SpanBackbone && s.Rows == 0:
		// No rows computed: the pass read the public-half store.
		t.Kind += " (reused)"
	}
	return t
}

// buildTraces reassembles a flat recent-span window into span trees:
// spans sharing a trace ID form one tree, children attach to the span
// whose ID matches their Parent (orphans whose parent the ring already
// overwrote fall back to the root), and trace-less spans (registry plan
// and evict events) come back separately.
func buildTraces(spans []obs.Span) ([]*traceTree, []*traceSpan) {
	type node struct {
		span obs.Span
		out  *traceSpan
	}
	var events []*traceSpan
	byTrace := map[uint64][]node{}
	order := []uint64{}
	for _, s := range spans {
		if s.Trace == 0 {
			events = append(events, renderSpan(s))
			continue
		}
		if _, seen := byTrace[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], node{span: s, out: renderSpan(s)})
	}
	trees := make([]*traceTree, 0, len(order))
	for _, id := range order {
		nodes := byTrace[id]
		byID := map[uint64]*traceSpan{}
		var root *traceSpan
		for _, n := range nodes {
			if n.span.ID != 0 {
				byID[n.span.ID] = n.out
			}
			if n.span.ID == n.span.Trace {
				root = n.out
			}
		}
		if root == nil {
			// The ring overwrote the root (partially captured query):
			// synthesise one so the surviving spans still render.
			root = &traceSpan{Kind: "partial"}
		}
		for _, n := range nodes {
			if n.out == root {
				continue
			}
			parent := byID[n.span.Parent]
			if parent == nil || parent == n.out {
				parent = root
			}
			parent.Children = append(parent.Children, n.out)
		}
		sortSpans(root)
		trees = append(trees, &traceTree{Trace: id, Root: root})
	}
	return trees, events
}

// sortSpans orders every child list by start time, recursively.
func sortSpans(t *traceSpan) {
	sort.SliceStable(t.Children, func(i, j int) bool { return t.Children[i].StartUS < t.Children[j].StartUS })
	for _, c := range t.Children {
		sortSpans(c)
	}
}

// handleTrace serves GET /debug/trace?n=K: the last K spans (default and
// cap: the ring capacity) as per-query span trees. Without a configured
// ring the endpoint reports 404 — tracing was not enabled.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	ring := a.cfg.Trace
	if ring == nil {
		httpError(w, http.StatusNotFound, errors.New("serve: tracing not enabled (start with -trace-buffer)"))
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, errors.New("serve: n must be a non-negative integer"))
			return
		}
		n = v
	}
	spans := ring.Last(n)
	traces, events := buildTraces(spans)
	resp := traceResponse{
		Capacity: ring.Cap(),
		Recorded: len(spans),
		Traces:   traces,
		Events:   events,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
