// Package serve is the concurrent batched inference front-end of the
// simulated edge device: a pool of workers answering a stream of label
// queries over deployed vaults.
//
// There is one serving core, the scheduler (sched.go): one request type,
// one bounded queue, one admission path, one micro-batch drain loop, one
// node-query path (validate → group → coalesce seeds → run → scatter) and
// one Close protocol. Three public front-ends are thin backends under it.
// Server is the single-tenant form — one vault, one pre-planned
// core.Workspace per worker, so the hot path allocates nothing.
// MultiServer is the multi-tenant form: requests carry a vault ID and the
// workers check workspaces out of a registry.Registry, which plans them
// lazily and evicts least-recently-served vaults when the enclave's EPC
// cannot hold every tenant. ShardedServer serves one vault split across a
// fleet of shard enclaves, with deadlines, per-shard circuit breakers and
// automatic recovery. What a backend supplies, and the invariants it must
// keep, are in DESIGN.md ("Serving core").
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
	"fmt"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNodeQueriesDisabled is returned by PredictNodes on a server started
// without Config.NodeQuery.
var ErrNodeQueriesDisabled = errors.New("serve: node queries not enabled")

// errNoFeatures fails a full-graph query that arrives without an input
// matrix — an APIConfig.Features that does not know the vault — at
// admission, before a worker could dereference it.
var errNoFeatures = errors.New("serve: no feature matrix for full-graph query")

// Config tunes the worker pool.
type Config struct {
	// Workers is the number of inference workers, each with its own
	// planned workspace (and therefore its own EPC charge). Default 2.
	Workers int
	// MaxBatch caps how many queued requests one worker drains per
	// wake-up. Default 8.
	MaxBatch int
	// QueueDepth bounds the request queue; Predict blocks when it is
	// full (backpressure). Default Workers·MaxBatch·2.
	QueueDepth int
	// Plan shapes each worker's full-graph workspace (EPC budget / tile
	// height / kernel worker budget — see core.PlanConfig). The zero value
	// plans classic untiled workspaces. Because the budget is carried per
	// plan, two servers with different settings can coexist in one
	// process.
	//
	// Plan applies where the server plans its own workspaces up front:
	// Server, and ShardedServer per shard (the budget is each shard
	// enclave's own). MultiServer checks workspaces out of a
	// registry.Registry, whose Config.Plan shapes them instead.
	Plan core.PlanConfig
	// NodeQuery, when non-nil, additionally plans one subgraph workspace
	// per worker and opens the PredictNodes path: node-level queries
	// served from sampled L-hop subgraphs at O(hops × fanout) per query.
	// Seed nodes from every node query a worker drains in one wake-up are
	// coalesced into shared extractions of up to MaxSeeds seeds.
	NodeQuery *registry.NodeQueryConfig
	// Features is the deployed graph's public feature matrix, gathered
	// from during subgraph extraction. Required when NodeQuery is set.
	// When set, it is also registered with the vault
	// (core.Vault.SetCalibrationFeatures): reduced-precision plans
	// (Plan.Precision) derive their scales from it and pass the agreement
	// gate, and full-graph requests whose input is this same matrix reuse
	// its backbone embeddings from the vault's public-half store.
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
	// Deadline, when > 0, bounds each request's enqueue→answer time on
	// the sharded path: a request still queued past its deadline fails
	// without running, and a fan-out in flight past it is aborted through
	// the fleet's poisonable barriers (context.DeadlineExceeded, HTTP
	// 503). Zero serves without a deadline.
	Deadline time.Duration
	// MaxRetries is how many times a node query routed to a tripped
	// shard waits out a jittered exponential backoff for the shard to
	// recover before failing with ErrShardUnavailable. Each wait is
	// bounded by the request's remaining Deadline. Default 0: fail fast.
	MaxRetries int
	// BreakerThreshold is how many consecutive failures on one shard trip
	// its circuit breaker (an enclave loss trips it immediately
	// regardless). Default 3.
	BreakerThreshold int
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

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.Workers * c.MaxBatch * 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.RecoveryBackoff <= 0 {
		c.RecoveryBackoff = 5 * time.Millisecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// planned is withDefaults for the servers that plan their own workspaces
// over a graph of n nodes: it also resolves NodeQuery's defaults and checks
// that Features, which node extractions gather from, covers the graph.
func (c Config) planned(n int) (Config, error) {
	c = c.withDefaults()
	if c.NodeQuery != nil {
		nq := c.NodeQuery.WithDefaults()
		c.NodeQuery = &nq
		if c.Features == nil || c.Features.Rows != n {
			return c, fmt.Errorf("serve: node queries need the deployed graph's %d-row feature matrix", n)
		}
	}
	return c, nil
}

// Stats is a snapshot of the server's counters since New. The latency
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
	// one shard of the fleet was offline — served work the fleet kept
	// doing through an outage.
	Degraded uint64
	// DeadlineExceeded counts requests that failed their Config.Deadline,
	// whether still queued or aborted mid-fan-out.
	DeadlineExceeded uint64
}

// counters aggregates the scheduler's serving statistics. Latency lives in two obs histograms (one per endpoint
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

// lease is what one worker holds of one vault while it serves a run: the
// vault, its full-graph or subgraph workspace, and the public features node
// extractions gather from. Server pins one per worker for life; MultiServer
// refills its workers' leases from the registry run by run.
type lease struct {
	id  string
	v   *core.Vault
	ws  *core.Workspace
	sub *core.SubgraphWorkspace
	x   *mat.Matrix
}

// leases is the half of the backend the single-vault and registry servers
// share — running a request on the calling worker's lease. Their node
// queries all coalesce together: a run is one vault, so one group.
type leases []lease

func (l leases) route(*request) (int, error) { return 0, nil }

func (l leases) runFull(w int, r *request) (labels []int, logits *mat.Matrix, spill int64, reused bool, err error) {
	h := &l[w]
	var bd core.InferenceBreakdown
	if r.scores != nil {
		logits, labels, bd, err = h.v.PredictScoresInto(r.x, h.ws)
	} else {
		labels, bd, err = h.v.PredictInto(r.x, h.ws)
	}
	return labels, logits, h.ws.SpillBytes(), bd.BackboneReused, err
}

func (l leases) runUnion(w, _ int, union []int, scores bool, _ []*request) (labels []int, logits *mat.Matrix, err error) {
	h := &l[w]
	if scores {
		logits, labels, _, err = h.v.PredictNodesScoresInto(h.x, union, h.sub)
	} else {
		labels, _, err = h.v.PredictNodesInto(h.x, union, h.sub)
	}
	return labels, logits, err
}

// Server is a pool of inference workers over one deployed vault: the
// scheduler over leases pinned at construction.
type Server struct {
	*scheduler
	leases
}

// New plans one workspace per worker against v — plus one subgraph
// workspace per worker when cfg.NodeQuery is set — and starts the pool.
// It fails — releasing anything it planned — if the combined workspaces do
// not fit the enclave's EPC, which is the real bound on worker concurrency
// for an enclave-backed deployment.
func New(v *core.Vault, cfg Config) (*Server, error) {
	cfg, err := cfg.planned(v.Nodes())
	if err != nil {
		return nil, err
	}
	if cfg.Features != nil {
		if err := v.SetCalibrationFeatures(cfg.Features); err != nil {
			return nil, fmt.Errorf("serve: registering calibration features: %w", err)
		}
	}
	s := &Server{scheduler: newScheduler(cfg, cfg.NodeQuery != nil)}
	for i := 0; i < cfg.Workers; i++ {
		h := lease{v: v, x: cfg.Features}
		if h.ws, err = v.PlanWith(v.Nodes(), cfg.Plan); err != nil {
			s.teardown()
			return nil, fmt.Errorf("serve: planning workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
		}
		s.leases = append(s.leases, h)
		if cfg.NodeQuery != nil {
			sub, err := v.PlanSubgraphWith(cfg.NodeQuery.MaxSeeds, cfg.NodeQuery.Subgraph(), cfg.Plan)
			if err != nil {
				s.teardown()
				return nil, fmt.Errorf("serve: planning node-query workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
			}
			s.leases[i].sub = sub
		}
	}
	s.run(s)
	return s, nil
}

func (s *Server) checkout(w int, _ string, node bool) (int, int, error) {
	h := &s.leases[w]
	if !node {
		return 0, 0, nil
	}
	if h.sub == nil {
		return 0, 0, ErrNodeQueriesDisabled // unreachable through submit's gate; defence in depth
	}
	return h.v.Nodes(), h.sub.MaxSeeds(), nil
}

func (s *Server) release(int, bool) {}

// teardown releases every planned workspace, returning its EPC.
func (s *Server) teardown() {
	for _, h := range s.leases {
		h.ws.Release()
		if h.sub != nil {
			h.sub.Release()
		}
	}
}

// Predict enqueues one inference over x and blocks until a worker answers.
// The returned slice is freshly allocated and owned by the caller. Safe for
// concurrent use; blocks for backpressure when the queue is full.
func (s *Server) Predict(x *mat.Matrix) ([]int, error) {
	_, labels, err := s.submit("", x, nil, false, false)
	return labels, err
}

// PredictScores is Predict answering with the defended per-class posterior
// row and label for every input row. The server must have been started
// with Config.ExposeScores; otherwise it fails with ErrScoresDisabled.
func (s *Server) PredictScores(x *mat.Matrix) ([][]float64, []int, error) {
	return s.submit("", x, nil, false, true)
}

// PredictNodes enqueues one node-level query and blocks until a worker
// answers with one label per requested node. The server must have been
// started with Config.NodeQuery (else ErrNodeQueriesDisabled); queries
// whose distinct seed count exceeds NodeQuery.MaxSeeds fail with
// subgraph.ErrTooManySeeds, and out-of-range nodes with
// core.ErrNodeOutOfRange. nodes must not be mutated until PredictNodes
// returns. The returned slice is freshly allocated and owned by the caller.
func (s *Server) PredictNodes(nodes []int) ([]int, error) {
	_, labels, err := s.submit("", nil, nodes, true, false)
	return labels, err
}

// PredictNodesScores is PredictNodes for servers exposing scores: one
// defended posterior row and label per requested node, served through the
// same coalesced subgraph extractions.
func (s *Server) PredictNodesScores(nodes []int) ([][]float64, []int, error) {
	return s.submit("", nil, nodes, true, true)
}

// Close stops accepting requests, waits for queued work to finish, and
// releases every worker workspace (returning their EPC to the enclave).
// Idempotent.
func (s *Server) Close() { s.shutdown() }
