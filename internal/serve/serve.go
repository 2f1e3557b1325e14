// Package serve is the concurrent batched inference front-end of the
// simulated edge device: a pool of workers answering a stream of label
// queries over deployed vaults.
//
// Two front-ends share the worker machinery. Server is the single-tenant
// form — one vault, one pre-planned core.Workspace per worker, so the hot
// path allocates nothing. MultiServer is the multi-tenant form: requests
// carry a vault ID and the shared worker pool routes them across a
// registry.Registry, which plans workspaces lazily and evicts
// least-recently-served vaults when the enclave's EPC cannot hold every
// tenant (see DESIGN.md, "Multi-vault registry and EPC scheduling").
//
// Micro-batching here coalesces queued requests into one worker wake-up:
// GNN inference is full-graph, so requests cannot be fused into a wider
// matrix, but draining the queue in batches amortises scheduling and keeps
// each worker's workspace cache-hot across consecutive requests. The
// multi-vault worker additionally serves consecutive same-vault requests
// in a drained batch under one workspace checkout.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNodeQueriesDisabled is returned by PredictNodes on a server started
// without Config.NodeQuery.
var ErrNodeQueriesDisabled = errors.New("serve: node queries not enabled")

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
	// Plan applies to the single-vault Server only, which plans its own
	// workspaces up front. MultiServer checks workspaces out of a
	// registry.Registry, so its plan shape is the registry's
	// Config.Plan; this field is ignored there.
	Plan core.PlanConfig
	// NodeQuery, when non-nil, additionally plans one subgraph workspace
	// per worker and opens the PredictNodes path: node-level queries
	// served from sampled L-hop subgraphs at O(hops × fanout) per query.
	// Seed nodes from every node query a worker drains in one wake-up are
	// coalesced into shared extractions of up to MaxSeeds seeds.
	NodeQuery *registry.NodeQueryConfig
	// Features is the deployed graph's public feature matrix, gathered
	// from during subgraph extraction. Required when NodeQuery is set.
	// When set, it is also registered as the vault's calibration batch, so
	// reduced-precision plans (Plan.Precision) can derive their scales and
	// pass the agreement gate.
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

	// Degraded counts node queries answered successfully while at least
	// one shard of the fleet was offline — served work the fleet kept
	// doing through an outage.
	Degraded uint64
	// DeadlineExceeded counts requests that failed their Config.Deadline,
	// whether still queued or aborted mid-fan-out.
	DeadlineExceeded uint64
}

type request struct {
	x      *mat.Matrix
	nodes  []int // non-nil marks a node-level query
	out    []int
	scores [][]float64 // non-nil marks a score query; one row per label
	err    error
	enq    time.Time
	done   chan struct{}
}

// counters aggregates the serving statistics shared by Server and
// MultiServer. Latency lives in two obs histograms (one per endpoint
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

// Server is a pool of inference workers over one deployed vault.
type Server struct {
	vault *core.Vault
	cfg   Config
	reqs  chan *request
	pool  sync.Pool

	// sendMu lets Close wait out in-flight Predict sends before closing
	// the queue channel.
	sendMu sync.RWMutex
	closed atomic.Bool
	wg     sync.WaitGroup
	start  time.Time

	counters
}

// New plans one workspace per worker against v — plus one subgraph
// workspace per worker when cfg.NodeQuery is set — and starts the pool.
// It fails — releasing anything it planned — if the combined workspaces do
// not fit the enclave's EPC, which is the real bound on worker concurrency
// for an enclave-backed deployment.
func New(v *core.Vault, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeQuery != nil {
		nq := cfg.NodeQuery.WithDefaults()
		cfg.NodeQuery = &nq
		if cfg.Features == nil || cfg.Features.Rows != v.Nodes() {
			return nil, fmt.Errorf("serve: node queries need the deployed graph's %d-row feature matrix", v.Nodes())
		}
	}
	rows := v.Nodes()
	if cfg.Features != nil {
		if err := v.SetCalibrationFeatures(cfg.Features); err != nil {
			return nil, fmt.Errorf("serve: registering calibration features: %w", err)
		}
	}
	workspaces := make([]*core.Workspace, 0, cfg.Workers)
	subWS := make([]*core.SubgraphWorkspace, 0, cfg.Workers)
	release := func() {
		for _, w := range workspaces {
			w.Release()
		}
		for _, w := range subWS {
			w.Release()
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		ws, err := v.PlanWith(rows, cfg.Plan)
		if err != nil {
			release()
			return nil, fmt.Errorf("serve: planning workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
		}
		workspaces = append(workspaces, ws)
		if cfg.NodeQuery != nil {
			sw, err := v.PlanSubgraphWith(cfg.NodeQuery.MaxSeeds, cfg.NodeQuery.Subgraph(), cfg.Plan)
			if err != nil {
				release()
				return nil, fmt.Errorf("serve: planning node-query workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
			}
			subWS = append(subWS, sw)
		}
	}
	s := &Server{
		vault: v,
		cfg:   cfg,
		reqs:  make(chan *request, cfg.QueueDepth),
		start: time.Now(),
	}
	s.pool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	for i, ws := range workspaces {
		var sw *core.SubgraphWorkspace
		if cfg.NodeQuery != nil {
			sw = subWS[i]
		}
		s.wg.Add(1)
		go s.worker(ws, sw)
	}
	return s, nil
}

// Predict enqueues one inference over x and blocks until a worker answers.
// The returned slice is freshly allocated and owned by the caller. Safe for
// concurrent use; blocks for backpressure when the queue is full.
func (s *Server) Predict(x *mat.Matrix) ([]int, error) {
	req := s.pool.Get().(*request)
	req.x = x
	req.out = make([]int, x.Rows)
	req.err = nil
	req.enq = time.Now()

	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		s.pool.Put(req)
		return nil, ErrClosed
	}
	s.requests.Add(1)
	s.reqs <- req
	s.sendMu.RUnlock()

	<-req.done
	out, err := req.out, req.err
	req.x, req.out, req.err = nil, nil, nil
	s.pool.Put(req)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictScores enqueues one inference over x and blocks until a worker
// answers with the defended per-class posterior row and label for every
// input row. The server must have been started with Config.ExposeScores;
// otherwise it fails with ErrScoresDisabled. Returned slices are freshly
// allocated and owned by the caller.
func (s *Server) PredictScores(x *mat.Matrix) ([][]float64, []int, error) {
	if !s.cfg.ExposeScores {
		return nil, nil, ErrScoresDisabled
	}
	req := s.pool.Get().(*request)
	req.x = x
	req.out = make([]int, x.Rows)
	req.scores = make([][]float64, x.Rows)
	req.err = nil
	req.enq = time.Now()

	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		s.pool.Put(req)
		return nil, nil, ErrClosed
	}
	s.requests.Add(1)
	s.reqs <- req
	s.sendMu.RUnlock()

	<-req.done
	scores, out, err := req.scores, req.out, req.err
	req.x, req.out, req.scores, req.err = nil, nil, nil, nil
	s.pool.Put(req)
	if err != nil {
		return nil, nil, err
	}
	return scores, out, nil
}

// PredictNodesScores is PredictNodes for servers exposing scores: one
// defended posterior row and label per requested node, served through the
// same coalesced subgraph extractions. Fails with ErrScoresDisabled when
// Config.ExposeScores is off and ErrNodeQueriesDisabled when node queries
// are not planned.
func (s *Server) PredictNodesScores(nodes []int) ([][]float64, []int, error) {
	if !s.cfg.ExposeScores {
		return nil, nil, ErrScoresDisabled
	}
	if s.cfg.NodeQuery == nil {
		return nil, nil, ErrNodeQueriesDisabled
	}
	if len(nodes) == 0 {
		return [][]float64{}, []int{}, nil
	}
	req := s.pool.Get().(*request)
	req.x = nil
	req.nodes = nodes
	req.out = make([]int, len(nodes))
	req.scores = make([][]float64, len(nodes))
	req.err = nil
	req.enq = time.Now()

	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		s.pool.Put(req)
		return nil, nil, ErrClosed
	}
	s.requests.Add(1)
	s.reqs <- req
	s.sendMu.RUnlock()

	<-req.done
	scores, out, err := req.scores, req.out, req.err
	req.nodes, req.out, req.scores, req.err = nil, nil, nil, nil
	s.pool.Put(req)
	if err != nil {
		return nil, nil, err
	}
	return scores, out, nil
}

// PredictNodes enqueues one node-level query and blocks until a worker
// answers with one label per requested node. The server must have been
// started with Config.NodeQuery; queries whose distinct seed count
// exceeds NodeQuery.MaxSeeds fail with subgraph.ErrTooManySeeds, and
// out-of-range nodes with core.ErrNodeOutOfRange. nodes must not be
// mutated until PredictNodes returns. The returned slice is freshly
// allocated and owned by the caller.
func (s *Server) PredictNodes(nodes []int) ([]int, error) {
	if s.cfg.NodeQuery == nil {
		return nil, ErrNodeQueriesDisabled
	}
	if len(nodes) == 0 {
		return []int{}, nil
	}
	req := s.pool.Get().(*request)
	req.x = nil
	req.nodes = nodes
	req.out = make([]int, len(nodes))
	req.err = nil
	req.enq = time.Now()

	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		s.pool.Put(req)
		return nil, ErrClosed
	}
	s.requests.Add(1)
	s.reqs <- req
	s.sendMu.RUnlock()

	<-req.done
	out, err := req.out, req.err
	req.nodes, req.out, req.err = nil, nil, nil
	s.pool.Put(req)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// worker drains the queue in micro-batches, answering every request with
// its own pre-planned workspace. Node queries in a drained batch are set
// aside and served together through the worker's subgraph workspace, so a
// burst of single-node queries pays for one extraction, not one each.
func (s *Server) worker(ws *core.Workspace, sub *core.SubgraphWorkspace) {
	defer s.wg.Done()
	defer ws.Release()
	if sub != nil {
		defer sub.Release()
	}
	batch := make([]*request, 0, s.cfg.MaxBatch)
	nodeReqs := make([]*request, 0, s.cfg.MaxBatch)
	var co coalescer
	if sub != nil {
		co = newCoalescer(sub.MaxSeeds())
	}
	for {
		req, ok := <-s.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], req)
		// Coalesce whatever else is already queued, up to MaxBatch.
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.batches.Add(1)
		nodeReqs = nodeReqs[:0]
		for _, r := range batch {
			if r.nodes != nil {
				nodeReqs = append(nodeReqs, r)
				continue
			}
			s.answer(r, ws)
		}
		if len(nodeReqs) > 0 {
			if sub == nil {
				// Unreachable through PredictNodes' guard; defence in depth.
				for _, r := range nodeReqs {
					r.err = ErrNodeQueriesDisabled
					s.observe(r.err, r.enq, true)
					r.done <- struct{}{}
				}
			} else {
				s.answerNodeBatch(nodeReqs, sub, &co)
			}
		}
	}
}

func (s *Server) answer(r *request, ws *core.Workspace) {
	var labels []int
	var err error
	if r.scores != nil {
		var logits *mat.Matrix
		logits, labels, _, err = s.vault.PredictScoresInto(r.x, ws)
		if err == nil {
			for i := range r.scores { // the machine's output view is reused
				r.scores[i] = s.cfg.defendedRow(logits.Row(i))
			}
		}
	} else {
		labels, _, err = s.vault.PredictInto(r.x, ws)
	}
	if err != nil {
		r.err = err
	} else {
		copy(r.out, labels) // the workspace's label buffer is reused
		s.spillBytes.Add(ws.SpillBytes())
	}
	s.observe(err, r.enq, false)
	r.done <- struct{}{}
}

// answerNodeBatch serves one wake-up's node queries: the coalescer packs
// their seed sets into as few shared extractions as MaxSeeds admits, each
// chunk runs one PredictNodesInto, and every request reads its labels off
// the chunk's union. Requests with out-of-range seeds are rejected
// individually first, so one bad query can never fail the valid queries
// coalesced into its chunk.
func (s *Server) answerNodeBatch(reqs []*request, sub *core.SubgraphWorkspace, co *coalescer) {
	n := s.vault.Nodes()
	valid := reqs[:0]
	for _, r := range reqs {
		if !nodesInRange(r.nodes, n) {
			r.err = core.ErrNodeOutOfRange
			s.observe(r.err, r.enq, true)
			r.done <- struct{}{}
			continue
		}
		valid = append(valid, r)
	}
	reqs = valid
	co.pack(len(reqs),
		func(i int) []int { return reqs[i].nodes },
		func(i int, err error) {
			reqs[i].err = err
			s.observe(err, reqs[i].enq, true)
			reqs[i].done <- struct{}{}
		},
		func(idxs, union []int) {
			// One score query in the chunk upgrades the whole extraction
			// to the scores variant; label-only requests still read just
			// their labels.
			wantScores := false
			for _, i := range idxs {
				if reqs[i].scores != nil {
					wantScores = true
					break
				}
			}
			var labels []int
			var logits *mat.Matrix
			var err error
			if wantScores {
				logits, labels, _, err = s.vault.PredictNodesScoresInto(s.cfg.Features, union, sub)
			} else {
				labels, _, err = s.vault.PredictNodesInto(s.cfg.Features, union, sub)
			}
			for _, i := range idxs {
				r := reqs[i]
				if err != nil {
					r.err = err
				} else {
					for k, u := range r.nodes {
						j := indexOf(union, u)
						r.out[k] = labels[j]
						if r.scores != nil {
							r.scores[k] = s.cfg.defendedRow(logits.Row(j))
						}
					}
				}
				s.observe(err, r.enq, true)
				r.done <- struct{}{}
			}
		})
}

// nodesInRange reports whether every seed falls inside [0, n).
func nodesInRange(nodes []int, n int) bool {
	for _, u := range nodes {
		if u < 0 || u >= n {
			return false
		}
	}
	return true
}

// indexOf returns the position of u in union (which holds at most
// MaxSeeds entries — a linear scan beats any map at that size).
func indexOf(union []int, u int) int {
	for i, v := range union {
		if v == u {
			return i
		}
	}
	return -1 // unreachable: every request node was packed into its union
}

// coalescer packs a run of node queries' seed sets into shared extraction
// unions of at most maxSeeds distinct seeds. Buffers are reused across
// batches, so steady-state packing never allocates beyond the callbacks.
type coalescer struct {
	maxSeeds int
	union    []int
	idxs     []int
}

// newCoalescer sizes a coalescer for unions of maxSeeds seeds.
func newCoalescer(maxSeeds int) coalescer {
	return coalescer{
		maxSeeds: maxSeeds,
		union:    make([]int, 0, maxSeeds),
		idxs:     make([]int, 0, 16),
	}
}

// pack walks requests 0..n-1 in order (their seed sets read through
// seeds), growing the current union until the next request's unseen seeds
// would overflow it, then flushes the accumulated request indices and
// union through serve. Requests whose own distinct seed set cannot fit
// any union fail through reject with subgraph.ErrTooManySeeds; empty
// requests complete through reject with a nil error.
func (c *coalescer) pack(n int, seeds func(int) []int, reject func(int, error), serve func(idxs, union []int)) {
	c.union = c.union[:0]
	c.idxs = c.idxs[:0]
	flush := func() {
		if len(c.idxs) > 0 {
			serve(c.idxs, c.union)
			c.union = c.union[:0]
			c.idxs = c.idxs[:0]
		}
	}
	for i := 0; i < n; i++ {
		nodes := seeds(i)
		if len(nodes) == 0 {
			reject(i, nil) // zero labels requested: answered without work
			continue
		}
		if distinctCount(nodes) > c.maxSeeds {
			reject(i, subgraph.ErrTooManySeeds)
			continue
		}
		if len(c.union)+c.countFresh(nodes) > c.maxSeeds {
			flush()
		}
		for _, u := range nodes {
			if indexOf(c.union, u) < 0 {
				c.union = append(c.union, u)
			}
		}
		c.idxs = append(c.idxs, i)
	}
	flush()
}

// countFresh returns how many distinct seeds of nodes are not yet in the
// union — the union growth admitting this request would cost.
func (c *coalescer) countFresh(nodes []int) int {
	fresh := 0
	for i, u := range nodes {
		if indexOf(c.union, u) >= 0 || indexOf(nodes[:i], u) >= 0 {
			continue
		}
		fresh++
	}
	return fresh
}

// distinctCount returns the number of distinct seeds in nodes.
func distinctCount(nodes []int) int {
	n := 0
	for i, u := range nodes {
		if indexOf(nodes[:i], u) < 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	return s.snapshot(s.start)
}

// Close stops accepting requests, waits for queued work to finish, and
// releases every worker workspace (returning their EPC to the enclave).
// Idempotent.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		s.wg.Wait()
		return
	}
	// Wait out in-flight Predict sends, then close the queue so workers
	// drain and exit.
	s.sendMu.Lock()
	close(s.reqs)
	s.sendMu.Unlock()
	s.wg.Wait()
}
