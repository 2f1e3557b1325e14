package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
)

// ErrShardUnavailable is returned when a query's target shard enclave is
// offline (SetShardAvailable or a tripped circuit breaker), or — for
// full-graph queries — when any shard of the fleet is: the halo exchange
// barriers need every enclave. It is deliberately distinct from both
// enclave.ErrEPCExhausted (a capacity failure the registry answers with
// evictions) and ErrRateLimited (a policy decision against one client):
// a shard outage is transient infrastructure state, retryable once the
// shard rejoins, and must trigger neither evictions nor throttle
// accounting.
var ErrShardUnavailable = errors.New("serve: shard unavailable")

// Circuit-breaker states, per shard. The life cycle is closed → open
// (BreakerThreshold consecutive failures, or one enclave loss) →
// half-open (the recovery loop re-sealed and re-proved the shard, and it
// serves again on probation) → closed (first successful query).
const (
	breakerClosed   int32 = 0
	breakerOpen     int32 = 1
	breakerHalfOpen int32 = 2
)

// ShardedServer is the scheduler over a core.ShardedVault: the vault's
// private CSR split across a fleet of shard enclaves. Each worker owns one
// sharded full-graph workspace (the backbone plus one rectifier machine
// per shard, coupled through halo-exchange barriers) and, when node
// queries are enabled, one subgraph workspace per shard, planned against
// that shard's own enclave.
//
// Routing: a full-graph query fans out to every shard — the fleet's
// barriers make the per-layer halo exchange a joint step, so the whole
// fleet must be up. A node query routes to the shard owning its first
// seed; cross-shard rows its extraction touches are priced as OCALLs plus
// halo bytes by the core layer and accumulated here per shard.
//
// Failure domain: each shard has a circuit breaker. An enclave loss (or
// BreakerThreshold consecutive failures) trips it: the shard goes
// offline, in-flight full-graph passes are aborted through the fleet's
// poisonable barriers, and a per-shard recovery loop re-seals the shard
// (core.ShardedVault.RecoverShard) under jittered exponential backoff
// while healthy-shard node queries keep serving — graceful degradation
// instead of an outage. Config.Deadline bounds every request end to end.
//
// Sharded serving is label-only: per-class scores are not wired through
// the fleet, so NewSharded refuses Config.ExposeScores and the score
// endpoints fail with ErrScoresDisabled.
type ShardedServer struct {
	*scheduler
	sv *core.ShardedVault

	// Per-shard serving state: availability flags flipped by
	// SetShardAvailable and the breakers, accumulated halo traffic, and
	// the full-graph fan-out latency histogram surfaced on /metrics.
	avail     []atomic.Bool
	shardHalo []atomic.Int64
	fanout    obs.Histogram

	// Fault domain. The worker workspaces are shared with the recovery
	// loop so a re-sealed shard can rejoin every pass; node-query
	// workspaces are atomic pointers so recovery can swap in replacements
	// planned against the fresh enclave while workers keep serving.
	workspaces   []*core.ShardedWorkspace
	subs         [][]atomic.Pointer[core.SubgraphWorkspace] // [worker][shard]; nil without NodeQuery
	breaker      []atomic.Int32                             // breakerClosed / breakerOpen / breakerHalfOpen
	fails        []atomic.Int32                             // consecutive failures toward BreakerThreshold
	restarts     []atomic.Uint64                            // successful recoveries per shard
	nodeInflight []atomic.Int64                             // node queries executing per shard (workspace-swap fence)
	trippedAt    []atomic.Int64                             // wall ns of the breaker trip, for the recovery span
	stop         chan struct{}
	healthWG     sync.WaitGroup
}

// NewSharded plans one sharded workspace per worker against sv — plus one
// subgraph workspace per worker per shard when cfg.NodeQuery is set — and
// starts the pool. Config knobs keep their Server meaning; Plan applies
// per shard (an EPC budget is each shard enclave's own budget). Fails,
// releasing anything it planned, when a shard's share does not fit its
// enclave, and refuses Config.ExposeScores: the sharded path is
// label-only.
func NewSharded(sv *core.ShardedVault, cfg Config) (*ShardedServer, error) {
	if cfg.ExposeScores {
		return nil, fmt.Errorf("serve: sharded serving is label-only, scores cannot be exposed: %w", ErrScoresDisabled)
	}
	cfg, err := cfg.planned(sv.Nodes())
	if err != nil {
		return nil, err
	}
	if cfg.Features != nil {
		if err := sv.SetCalibrationFeatures(cfg.Features); err != nil {
			return nil, fmt.Errorf("serve: registering calibration features: %w", err)
		}
	}
	shards := sv.Shards()
	s := &ShardedServer{
		scheduler:    newScheduler(cfg, cfg.NodeQuery != nil),
		sv:           sv,
		avail:        make([]atomic.Bool, shards),
		shardHalo:    make([]atomic.Int64, shards),
		breaker:      make([]atomic.Int32, shards),
		fails:        make([]atomic.Int32, shards),
		restarts:     make([]atomic.Uint64, shards),
		nodeInflight: make([]atomic.Int64, shards),
		trippedAt:    make([]atomic.Int64, shards),
		stop:         make(chan struct{}),
	}
	for i := range s.avail {
		s.avail[i].Store(true)
	}
	for i := 0; i < cfg.Workers; i++ {
		ws, err := sv.PlanSharded(sv.Nodes(), cfg.Plan)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("serve: planning sharded workspace for worker %d/%d: %w", i+1, cfg.Workers, err)
		}
		s.workspaces = append(s.workspaces, ws)
		if cfg.NodeQuery == nil {
			continue
		}
		s.subs = append(s.subs, make([]atomic.Pointer[core.SubgraphWorkspace], shards))
		for sh := 0; sh < shards; sh++ {
			sw, err := s.planSub(sh)
			if err != nil {
				s.teardown()
				return nil, fmt.Errorf("serve: planning node-query workspace for worker %d/%d shard %d: %w", i+1, cfg.Workers, sh, err)
			}
			s.subs[i][sh].Store(sw)
		}
	}
	s.run(s)
	return s, nil
}

// planSub plans one node-query workspace against shard sh's enclave.
func (s *ShardedServer) planSub(sh int) (*core.SubgraphWorkspace, error) {
	return s.sv.Shard(sh).PlanSubgraphWith(s.cfg.NodeQuery.MaxSeeds, s.cfg.NodeQuery.Subgraph(), s.cfg.Plan)
}

// Shards returns the served fleet's shard count.
func (s *ShardedServer) Shards() int { return s.sv.Shards() }

// SetShardAvailable marks shard sh as serving or offline. An offline
// shard fails node queries it owns — and every full-graph query, since
// the fleet's halo barriers need all shards — with ErrShardUnavailable.
// Taking a shard offline also aborts any full-graph pass currently in
// flight through the fleet's poisonable barriers, so a fan-out racing
// the flip gets a clean ErrShardUnavailable instead of a hung barrier.
// Safe at any time from any goroutine; it does not touch the breaker, so
// an administratively pulled shard is not "recovered" behind the
// operator's back.
func (s *ShardedServer) SetShardAvailable(sh int, ok bool) {
	s.avail[sh].Store(ok)
	if !ok {
		s.abortFullGraph(fmt.Errorf("%w: shard %d taken offline mid-pass", ErrShardUnavailable, sh))
	}
}

// abortFullGraph poisons every worker's in-flight full-graph pass with
// cause; idle workspaces ignore it (core.ShardedWorkspace.Abort).
func (s *ShardedServer) abortFullGraph(cause error) {
	for _, ws := range s.workspaces {
		ws.Abort(cause)
	}
}

// offlineShard returns the lowest offline shard, or -1 when the whole
// fleet is serving.
func (s *ShardedServer) offlineShard() int {
	for i := range s.avail {
		if !s.avail[i].Load() {
			return i
		}
	}
	return -1
}

// Predict enqueues one full-graph inference over x, fanned out across the
// shard fleet, and blocks until a worker answers. The returned slice is
// freshly allocated and owned by the caller; labels are bit-identical to
// a single-enclave server's. Safe for concurrent use; blocks for
// backpressure when the queue is full.
func (s *ShardedServer) Predict(x *mat.Matrix) ([]int, error) {
	_, labels, err := s.submit("", x, nil, false, false)
	return labels, err
}

// PredictScores always fails with ErrScoresDisabled: the sharded path is
// label-only (scores are not wired through the fleet).
func (s *ShardedServer) PredictScores(x *mat.Matrix) ([][]float64, []int, error) {
	return s.submit("", x, nil, false, true)
}

// PredictNodesScores always fails with ErrScoresDisabled: the sharded
// path is label-only.
func (s *ShardedServer) PredictNodesScores(nodes []int) ([][]float64, []int, error) {
	return s.submit("", nil, nodes, true, true)
}

// PredictNodes enqueues one node-level query and blocks until a worker
// answers with one label per requested node. The query routes to the
// shard owning its first seed; an offline owner fails the query with
// ErrShardUnavailable after up to Config.MaxRetries jittered backoff
// waits for the shard to recover. Other semantics match
// Server.PredictNodes.
func (s *ShardedServer) PredictNodes(nodes []int) ([]int, error) {
	_, labels, err := s.submit("", nil, nodes, true, false)
	return labels, err
}

// checkout has nothing to obtain — worker w's sharded workspace is pinned
// and its node-query workspaces are loaded per extraction, inside the
// swap fence (runUnion) — so it only reports the fleet's geometry.
func (s *ShardedServer) checkout(w int, _ string, node bool) (int, int, error) {
	if !node {
		return 0, 0, nil
	}
	if s.subs == nil {
		return 0, 0, ErrNodeQueriesDisabled // unreachable through submit's gate; defence in depth
	}
	return s.sv.Nodes(), s.cfg.NodeQuery.MaxSeeds, nil
}

func (s *ShardedServer) release(int, bool) {}

// route groups a node query with its owning shard's — unions never mix
// shards — after waiting out a tripped owner under the retry policy.
func (s *ShardedServer) route(r *request) (int, error) {
	sh, err := s.sv.RouteSeeds(r.nodes)
	if err != nil {
		return 0, err
	}
	if !s.awaitShard(sh, r.enq) {
		return 0, fmt.Errorf("%w: shard %d owning node %d is offline", ErrShardUnavailable, sh, r.nodes[0])
	}
	return sh, nil
}

// requestContext derives the execution context for a request enqueued at
// enq under Config.Deadline: a deadline-bounded context carrying the
// remaining budget, or an error when the request already overstayed it
// in the queue. Without a configured deadline the background context
// comes back with a no-op cancel.
func (s *ShardedServer) requestContext(enq time.Time) (context.Context, context.CancelFunc, error) {
	if s.cfg.Deadline <= 0 {
		return context.Background(), func() {}, nil
	}
	remaining := s.cfg.Deadline - time.Since(enq)
	if remaining <= 0 {
		return nil, nil, fmt.Errorf("serve: request exceeded its %v deadline in queue: %w", s.cfg.Deadline, context.DeadlineExceeded)
	}
	ctx, cancel := context.WithTimeout(context.Background(), remaining)
	return ctx, cancel, nil
}

// runFull serves one full-graph request: admission first (the whole fleet
// must be up — a degraded fleet fails fast so clients retry after
// recovery), then one deadline-bounded fan-out through worker w's sharded
// workspace, timed into the fan-out histogram, its halo traffic
// accumulated per shard and its outcome fed to the breakers.
func (s *ShardedServer) runFull(w int, r *request) ([]int, *mat.Matrix, int64, bool, error) {
	if off := s.offlineShard(); off >= 0 {
		return nil, nil, 0, false, fmt.Errorf("%w: shard %d is offline and full-graph inference needs the whole fleet", ErrShardUnavailable, off)
	}
	ctx, cancel, err := s.requestContext(r.enq)
	if err != nil {
		return nil, nil, 0, false, err
	}
	ws := s.workspaces[w]
	fan := time.Now()
	labels, bd, err := s.sv.PredictIntoContext(ctx, r.x, ws)
	s.fanout.Observe(time.Since(fan).Nanoseconds())
	cancel()
	s.noteFullGraph(err)
	if err != nil {
		return nil, nil, 0, false, err
	}
	for sh := range s.shardHalo {
		s.shardHalo[sh].Add(ws.ShardHaloBytes(sh))
	}
	return labels, nil, ws.SpillBytes(), bd.BackboneReused, nil
}

// runUnion serves one coalesced extraction on shard sh's subgraph
// workspace, deadline-bounded by the chunk's oldest member (requests are
// packed in arrival order, so that is the first), with the cross-shard
// rows the extraction touched accumulated as that shard's halo traffic.
// The workspace pointer is loaded inside the shard's inflight window, the
// fence recovery waits on before releasing a swapped-out workspace.
// Queries answered while another shard is down count as degraded serving.
func (s *ShardedServer) runUnion(w, sh int, union []int, _ bool, chunk []*request) ([]int, *mat.Matrix, error) {
	ctx, cancel, err := s.requestContext(chunk[0].enq)
	if err != nil {
		return nil, nil, err
	}
	s.nodeInflight[sh].Add(1)
	labels, halo, _, err := s.sv.PredictNodesAtContext(ctx, s.cfg.Features, union, sh, s.subs[w][sh].Load())
	s.nodeInflight[sh].Add(-1)
	cancel()
	if err != nil {
		s.noteShardError(sh, err)
		return nil, nil, err
	}
	s.noteShardSuccess(sh)
	s.shardHalo[sh].Add(halo)
	if s.offlineShard() >= 0 {
		s.degraded.Add(uint64(len(chunk)))
	}
	return labels, nil, nil
}

// noteFullGraph feeds one fan-out's outcome to the breakers: a success
// proved every shard (closing any half-open breaker), a failure blamed
// on a specific shard by core.ShardFault counts against that shard
// alone. Unattributable failures (validation, a deadline that poisoned
// the whole fleet at once) touch no breaker.
func (s *ShardedServer) noteFullGraph(err error) {
	if err == nil {
		for sh := range s.breaker {
			s.noteShardSuccess(sh)
		}
		return
	}
	var sf *core.ShardFault
	if errors.As(err, &sf) {
		s.noteShardError(sf.Shard, err)
	}
}

// noteShardError counts one shard-attributed failure. Enclave loss is
// unambiguous and trips the breaker immediately; other faults trip it
// after BreakerThreshold consecutive failures. Outage echoes
// (ErrShardUnavailable) and deadline/cancellation errors never count —
// tripping a healthy shard because a client's deadline was tight would
// turn load into an outage.
func (s *ShardedServer) noteShardError(sh int, err error) {
	switch {
	case errors.Is(err, ErrShardUnavailable),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return
	case errors.Is(err, enclave.ErrEnclaveLost):
		s.tripShard(sh, err)
	default:
		if int(s.fails[sh].Add(1)) >= s.cfg.BreakerThreshold {
			s.tripShard(sh, err)
		}
	}
}

// noteShardSuccess resets the shard's consecutive-failure count and
// closes a half-open breaker: the recovered shard answered a real query,
// probation is over.
func (s *ShardedServer) noteShardSuccess(sh int) {
	s.fails[sh].Store(0)
	s.breaker[sh].CompareAndSwap(breakerHalfOpen, breakerClosed)
}

// tripShard opens shard sh's breaker (first trip wins), takes the shard
// out of admission, aborts in-flight full-graph passes so no barrier
// hangs waiting for a dead enclave, and starts the shard's background
// recovery loop.
func (s *ShardedServer) tripShard(sh int, cause error) {
	if !s.breaker[sh].CompareAndSwap(breakerClosed, breakerOpen) &&
		!s.breaker[sh].CompareAndSwap(breakerHalfOpen, breakerOpen) {
		return // already open: its recovery loop is running
	}
	s.trippedAt[sh].Store(time.Now().UnixNano())
	s.avail[sh].Store(false)
	s.abortFullGraph(fmt.Errorf("%w: shard %d breaker tripped: %w", ErrShardUnavailable, sh, cause))
	s.recordEvent(obs.SpanFault, sh, 0)
	s.healthWG.Add(1)
	go s.recoverLoop(sh)
}

// recoverLoop drives one tripped shard back to serving: jittered
// exponential backoff between attempts, each attempt a full
// RecoverShard (re-seal, re-calibrate, rejoin every worker workspace)
// plus replacement node-query workspaces planned against the fresh
// enclave. Runs until recovery succeeds or the server closes.
func (s *ShardedServer) recoverLoop(sh int) {
	defer s.healthWG.Done()
	backoff := s.cfg.RecoveryBackoff
	maxBackoff := 64 * s.cfg.RecoveryBackoff
	for attempt := 0; ; attempt++ {
		d := backoff + s.jitter(uint64(sh)<<32|uint64(attempt), backoff)
		select {
		case <-s.stop:
			return
		case <-time.After(d):
		}
		if s.tryRecover(sh) {
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// tryRecover attempts one recovery round for shard sh. It fails (to be
// retried under backoff) when a full-graph pass is still draining or
// the re-seal itself fails. On success the shard re-enters admission
// half-open.
func (s *ShardedServer) tryRecover(sh int) bool {
	if err := s.sv.RecoverShard(sh, s.workspaces...); err != nil {
		return false
	}
	if s.subs != nil {
		fresh := make([]*core.SubgraphWorkspace, len(s.subs))
		for w := range s.subs {
			sw, err := s.planSub(sh)
			if err != nil {
				for _, f := range fresh {
					if f != nil {
						f.Release()
					}
				}
				return false
			}
			fresh[w] = sw
		}
		old := make([]*core.SubgraphWorkspace, len(s.subs))
		for w := range s.subs {
			old[w] = s.subs[w][sh].Swap(fresh[w])
		}
		// Workers load the workspace pointer inside their per-shard
		// inflight window, so once the count drains no worker can still
		// hold one of the swapped-out workspaces.
		for s.nodeInflight[sh].Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		for _, o := range old {
			if o != nil {
				o.Release()
			}
		}
	}
	s.restarts[sh].Add(1)
	s.fails[sh].Store(0)
	s.breaker[sh].Store(breakerHalfOpen)
	s.avail[sh].Store(true)
	s.recordEvent(obs.SpanRecover, sh, time.Now().UnixNano()-s.trippedAt[sh].Load())
	return true
}

// jitter derives a deterministic delay in [0, base/2] from the server
// seed and a stream identifier, de-synchronising backoff schedules
// without nondeterminism: the same seed replays the same chaos run.
func (s *ShardedServer) jitter(stream uint64, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	h := uint64(s.cfg.Seed)*0x9E3779B97F4A7C15 + stream
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return time.Duration(h % uint64(base/2+1))
}

// awaitShard reports whether shard sh is admitting node queries, waiting
// out up to Config.MaxRetries jittered exponential backoffs for a
// tripped shard to recover. Each wait is bounded by the request's
// remaining deadline and the server's shutdown.
func (s *ShardedServer) awaitShard(sh int, enq time.Time) bool {
	if s.avail[sh].Load() {
		return true
	}
	backoff := s.cfg.RecoveryBackoff
	for attempt := 0; attempt < s.cfg.MaxRetries; attempt++ {
		d := backoff + s.jitter(1<<48|uint64(sh)<<32|uint64(attempt), backoff)
		if dl := s.cfg.Deadline; dl > 0 {
			remaining := dl - time.Since(enq)
			if remaining <= 0 {
				return false
			}
			if d > remaining {
				d = remaining
			}
		}
		select {
		case <-s.stop:
			return false
		case <-time.After(d):
		}
		if s.avail[sh].Load() {
			return true
		}
		backoff *= 2
	}
	return s.avail[sh].Load()
}

// recordEvent stores one trace-less fault/recovery span (Rows carries the
// shard) when a flight-recorder ring is wired in.
func (s *ShardedServer) recordEvent(kind obs.SpanKind, sh int, dur int64) {
	ring := s.cfg.Trace
	if ring == nil || !ring.Enabled() {
		return
	}
	ring.Record(obs.Span{Kind: kind, Rows: int32(sh), Start: ring.Clock(), Dur: dur})
}

// ShardStats is a per-shard snapshot of the fleet's serving state: the
// availability flags, breaker states and restart counts, accumulated
// halo traffic, each shard enclave's EPC occupancy, the full-graph
// fan-out latency distribution and the summed transition ledger
// (PeakEPCBytes is the busiest single enclave — each shard has its own
// EPC).
type ShardStats struct {
	Shards    int
	Available []bool
	Breaker   []int32  // 0 closed, 1 open, 2 half-open
	Restarts  []uint64 // successful automatic recoveries per shard
	HaloBytes []int64  // accumulated boundary-activation bytes gathered per shard
	EPCUsed   []int64
	EPCFree   []int64
	EPCLimit  []int64

	Fanout obs.HistSnapshot // full-graph fan-out wall time, ns samples
	Ledger enclave.Ledger   // summed over shard enclaves
}

// ShardStats returns the current per-shard snapshot.
func (s *ShardedServer) ShardStats() ShardStats {
	shards := s.sv.Shards()
	st := ShardStats{
		Shards:    shards,
		Available: make([]bool, shards),
		Breaker:   make([]int32, shards),
		Restarts:  make([]uint64, shards),
		HaloBytes: make([]int64, shards),
		EPCUsed:   make([]int64, shards),
		EPCFree:   make([]int64, shards),
		EPCLimit:  make([]int64, shards),
		Fanout:    s.fanout.Snapshot(),
	}
	for i := 0; i < shards; i++ {
		st.Available[i] = s.avail[i].Load()
		st.Breaker[i] = s.breaker[i].Load()
		st.Restarts[i] = s.restarts[i].Load()
		st.HaloBytes[i] = s.shardHalo[i].Load()
		encl := s.sv.Shard(i).Enclave
		st.EPCUsed[i] = encl.EPCUsed()
		st.EPCFree[i] = encl.EPCFree()
		st.EPCLimit[i] = encl.EPCLimit()
		led := encl.Ledger()
		st.Ledger.ECalls += led.ECalls
		st.Ledger.OCalls += led.OCalls
		st.Ledger.BytesIn += led.BytesIn
		st.Ledger.BytesOut += led.BytesOut
		st.Ledger.PageSwaps += led.PageSwaps
		st.Ledger.TransitionNs += led.TransitionNs
		st.Ledger.TransferNs += led.TransferNs
		st.Ledger.PagingNs += led.PagingNs
		st.Ledger.ComputeNs += led.ComputeNs
		st.Ledger.AllocFailures += led.AllocFailures
		if led.PeakEPCBytes > st.Ledger.PeakEPCBytes {
			st.Ledger.PeakEPCBytes = led.PeakEPCBytes
		}
	}
	return st
}

// Close stops accepting requests, waits for queued work to finish, stops
// the recovery loops, and releases every worker workspace across every
// shard enclave (workspaces are released here, not by the workers,
// because a recovery loop may hold them past queue drain). The fleet
// itself stays deployed. Idempotent; concurrent callers block until
// teardown completes.
func (s *ShardedServer) Close() { s.shutdown() }

// teardown stops the recovery loops and releases every worker workspace
// across every shard enclave. It also unwinds a constructor that failed
// part-way, where some workspaces were never planned.
func (s *ShardedServer) teardown() {
	close(s.stop)
	s.healthWG.Wait()
	for _, ws := range s.workspaces {
		ws.Release()
	}
	for w := range s.subs {
		for sh := range s.subs[w] {
			if sw := s.subs[w][sh].Load(); sw != nil {
				sw.Release()
			}
		}
	}
}
