// Package serve is the concurrent batched inference front-end of the
// simulated edge device: a pool of workers answering a stream of label
// queries over deployed vaults.
//
// There is one serving core, MultiServer (sched.go): one request type,
// one bounded queue, one admission path, one micro-batch drain loop, one
// node-query path (route → group → coalesce seeds → run → scatter) and
// one Close protocol, over a registry.Registry. Requests carry a vault ID
// and the workers check workspaces out of the registry, which plans them
// lazily and evicts least-recently-served vaults when the enclave's EPC
// cannot hold every tenant. A shard fleet — one vault split across shard
// enclaves — is one more registry entry; the server keeps its per-shard
// availability and circuit breakers and has the registry recover a lost
// shard (fleet.go). Config.Deadline bounds every request. The invariants
// the core keeps are in DESIGN.md ("Serving core").
//
// Micro-batching here coalesces queued requests into one worker wake-up:
// GNN inference is full-graph, so requests cannot be fused into a wider
// matrix, but draining the queue in batches amortises scheduling, keeps
// each worker's workspace cache-hot across consecutive requests, serves
// consecutive same-vault requests under one workspace checkout, and lets
// node queries drained together share subgraph extractions.
package serve

import (
	"errors"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/knob"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNodeQueriesDisabled is every node-query refusal (a registry without
// a NodeQuery config, a vault or fleet it has not enabled, an API with
// NodeQueries off): registry.ErrNodeQueriesDisabled.
var ErrNodeQueriesDisabled = registry.ErrNodeQueriesDisabled

// errNoFeatures fails a full-graph query that arrives without an input
// matrix — an APIConfig.Features that does not know the vault — at
// admission, before a worker could dereference it.
var errNoFeatures = errors.New("serve: no feature matrix for full-graph query")

// Config tunes the worker pool. Every field is read by NewMulti, except
// Plan, NodeQuery and Features, which only NewSharded reads. ConfigKnobs
// declares each knob's range, default and flag: zero keeps its documented
// meaning, and a field outside its range — a negative one, say — is
// programmer error (gnnvault serve refuses it as it parses its flags), so
// NewMulti and NewSharded panic with the *knob.RangeError of Validate.
type Config struct {
	// Workers is the number of inference workers. Default 2. They share
	// the registry's workspaces; NewSharded plans one per worker up front.
	Workers int
	// MaxBatch caps how many queued requests one worker drains per
	// wake-up. Default 8. The request queue holds
	// Workers·MaxBatch·queueSlack requests; Predict blocks when it is full
	// (backpressure).
	MaxBatch int
	// Plan, NodeQuery and Features are read by NewSharded only, which
	// builds its registry from them. A MultiServer takes the same three
	// from its registry: registry.Config's Plan and NodeQuery,
	// registry.EnableNodeQueries and SetCalibrationFeatures.
	//
	// Plan shapes the fleet's workspaces, per shard (the EPC budget is each
	// shard enclave's own — see core.PlanConfig). The zero value plans
	// classic untiled workspaces.
	Plan core.PlanConfig
	// NodeQuery, when non-nil, opens the PredictNodes path: node-level
	// queries served from sampled L-hop subgraphs at O(hops × fanout) per
	// query, one subgraph workspace per worker per shard planned up front.
	NodeQuery *registry.NodeQueryConfig
	// Features is the deployed graph's public feature matrix, gathered
	// from during subgraph extraction. Required when NodeQuery is set.
	// When set, it is also registered with the fleet
	// (core.ShardedVault.SetCalibrationFeatures): reduced-precision plans
	// (Plan.Precision) derive their scales from it and pass the agreement
	// gate, and full-graph requests whose input is this same matrix reuse
	// its backbone embeddings from the fleet's public-half store.
	Features *mat.Matrix
	// ExposeScores opens the PredictScores/PredictNodesScores surface:
	// per-class softmax posteriors cross the enclave boundary alongside
	// labels. Off by default — label-only output is the paper's strongest
	// defense — and priced into the ECALL result payload when on.
	ExposeScores bool
	// RoundDigits, when > 0, coarsens every exposed score row to that
	// many decimal digits. Rounding is argmax-preserving: the top entry
	// rounds up, the rest round down, so labels never change.
	RoundDigits int
	// TopK, when > 0, keeps only the K largest entries of each exposed
	// score row and zeroes the rest (the argmax entry always survives).
	TopK int
	// Deadline, when > 0, bounds every request's enqueue→answer time: a
	// request still queued past its deadline fails without running, and a
	// pass in flight past it is aborted — through the fleet's poisonable
	// barriers on a full-graph pass (context.DeadlineExceeded, HTTP 503).
	// Zero serves without a deadline.
	Deadline time.Duration
	// MaxRetries, RecoveryBackoff, Seed and Trace tune the serving of
	// shard fleets only.
	//
	// MaxRetries is how many times a node query routed to a tripped
	// shard waits out a jittered exponential backoff for the shard to
	// recover before failing with ErrShardUnavailable. Each wait is
	// bounded by the request's remaining Deadline. Default 0: fail fast.
	MaxRetries int
	// RecoveryBackoff is the base delay of the breaker's automatic
	// recovery loop; attempts back off exponentially (with deterministic
	// jitter) from it. It also paces the node-query retry waits. Default
	// 5ms.
	RecoveryBackoff time.Duration
	// Seed seeds the deterministic jitter applied to recovery and retry
	// backoff, so chaos runs replay exactly. Default 1.
	Seed int64
	// Trace, when non-nil, records shard fault and recovery events into
	// the flight recorder's span ring (the same ring APIConfig.Trace
	// serves on /debug/trace).
	Trace *obs.Ring
}

// queueSlack is how many batches per worker the request queue holds.
const queueSlack = 2

// breakerThreshold is how many consecutive failures on one shard trip its
// circuit breaker (an enclave loss trips it immediately regardless).
const breakerThreshold = 3

// ConfigKnobs declares Config's knobs.
var ConfigKnobs = knob.Table[Config]{
	{Field: "Workers", Flag: "workers", Range: knob.AtLeast(1), Default: 2, Doc: "inference workers shared across the fleet"},
	{Field: "MaxBatch", Flag: "batch", Range: knob.AtLeast(1), Default: 8, Doc: "max requests coalesced per worker wake-up"},
	{Field: "ExposeScores", Flag: "expose-scores", Doc: "serve per-class softmax posteriors alongside labels (widens the attack surface; label-only is the paper's default posture)"},
	{Field: "RoundDigits", Flag: "round-digits", Range: knob.AtLeast(0), Zero: "exact scores", Doc: "round exposed scores to this many decimal digits, argmax-preserving"},
	{Field: "TopK", Flag: "topk", Range: knob.AtLeast(0), Zero: "all classes", Doc: "expose only the K largest score entries per row, zeroing the rest"},
	{Field: "Deadline", Flag: "deadline", Unit: "ns", Range: knob.AtLeast(0), Zero: "unbounded", Doc: "per-request serving deadline, enqueue to answer — expired requests fail with 503 and a Retry-After"},
	{Field: "MaxRetries", Flag: "max-retries", Range: knob.AtLeast(0), Zero: "fail fast", Doc: "node-query admission retries while the owning shard's breaker is open, each a jittered backoff bounded by -deadline (sharded only)"},
	{Field: "RecoveryBackoff", Unit: "ns", Range: knob.AtLeast(1), Default: 5 * time.Millisecond},
	{Field: "Seed", Range: knob.Any, Default: 1},
}

// Validate refuses a field outside its ConfigKnobs range with a
// *knob.RangeError. Plan and NodeQuery are registry.Config's to validate.
func (c Config) Validate() error { return ConfigKnobs.Check(c) }

// Stats is a snapshot of the server's counters since it started. The latency
// fields all derive from one pair of histogram snapshots taken at the
// same instant, so they are mutually consistent — AvgLatency can never
// exceed MaxLatency, and the quantiles are cut from the same
// distribution the average summarises.
type Stats struct {
	Requests  uint64 // accepted by Predict
	Completed uint64 // answered successfully
	Errors    uint64 // answered with an error
	Batches   uint64 // worker wake-ups (micro-batches)

	AvgBatch   float64       // Completed+Errors per batch
	AvgLatency time.Duration // mean enqueue→answer time
	MaxLatency time.Duration
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	Throughput float64 // completed requests per second of uptime
	Uptime     time.Duration

	// FullLatency and NodeLatency are the per-endpoint enqueue→answer
	// distributions (ns samples) the aggregate fields above merge — the
	// same histograms the /metrics scrape surface renders.
	FullLatency obs.HistSnapshot
	NodeLatency obs.HistSnapshot

	// SpillBytes is the accumulated modelled tile-flush traffic of every
	// answered full-graph request (0 for untiled plans).
	SpillBytes int64
	// BackboneComputed and BackboneReused split the answered full-graph
	// requests by what their pass did for the public half: ran the backbone,
	// or read the vault's public-half store (the request's input was the
	// registered feature matrix and an earlier pass had filled it).
	BackboneComputed uint64
	BackboneReused   uint64

	// Degraded counts node queries answered successfully while at least
	// one other shard of their fleet was offline — served work the fleet
	// kept doing through an outage.
	Degraded uint64
	// DeadlineExceeded counts requests that failed their Config.Deadline,
	// whether still queued or aborted mid-fan-out.
	DeadlineExceeded uint64
}

// counters aggregates the server's serving statistics. Latency lives in two obs histograms (one per endpoint
// family) instead of separate sum/max atomics: every derived figure —
// average, max, quantiles, the /metrics exposition — is cut from the
// same buckets, so the old inconsistency where a racing sum and CAS-max
// could report avg > max is gone by construction. Observing stays
// allocation-free (atomic bucket increments).
type counters struct {
	requests   atomic.Uint64
	completed  atomic.Uint64
	errors     atomic.Uint64
	batches    atomic.Uint64
	latFull    obs.Histogram // full-graph enqueue→answer ns
	latNode    obs.Histogram // node-query enqueue→answer ns
	spillBytes atomic.Int64  // modelled tile-flush traffic of answered full-graph requests

	backboneComputed atomic.Uint64 // answered full-graph passes that ran the backbone
	backboneReused   atomic.Uint64 // answered full-graph passes that read the public-half store

	degraded         atomic.Uint64 // node queries answered during a shard outage
	deadlineExceeded atomic.Uint64 // requests failed by Config.Deadline
}

// observe records one answered request: its outcome and its
// enqueue→answer latency, bucketed by endpoint family.
func (c *counters) observe(err error, enq time.Time, node bool) {
	if err != nil {
		c.errors.Add(1)
	} else {
		c.completed.Add(1)
	}
	lat := time.Since(enq).Nanoseconds()
	if node {
		c.latNode.Observe(lat)
	} else {
		c.latFull.Observe(lat)
	}
}

// snapshot derives a Stats from the counters and the server start time.
// All latency figures come from one pair of histogram snapshots.
func (c *counters) snapshot(start time.Time) Stats {
	full := c.latFull.Snapshot()
	node := c.latNode.Snapshot()
	all := full.Merge(node)
	st := Stats{
		Requests:    c.requests.Load(),
		Completed:   c.completed.Load(),
		Errors:      c.errors.Load(),
		Batches:     c.batches.Load(),
		AvgLatency:  time.Duration(all.Avg()),
		MaxLatency:  time.Duration(all.Max),
		P50Latency:  time.Duration(all.Quantile(0.50)),
		P95Latency:  time.Duration(all.Quantile(0.95)),
		P99Latency:  time.Duration(all.Quantile(0.99)),
		Uptime:      time.Since(start),
		FullLatency: full,
		NodeLatency: node,
		SpillBytes:  c.spillBytes.Load(),

		BackboneComputed: c.backboneComputed.Load(),
		BackboneReused:   c.backboneReused.Load(),
		Degraded:         c.degraded.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
	}
	answered := st.Completed + st.Errors
	if st.Batches > 0 {
		st.AvgBatch = float64(answered) / float64(st.Batches)
	}
	if sec := st.Uptime.Seconds(); sec > 0 {
		st.Throughput = float64(st.Completed) / sec
	}
	return st
}
