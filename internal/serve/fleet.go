package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// ErrShardUnavailable is returned when a query's target shard enclave is
// offline (setShardAvailable or a tripped circuit breaker), or — for
// full-graph queries — when any shard of the fleet is: the halo exchange
// barriers need every enclave. It is deliberately distinct from both
// enclave.ErrEPCExhausted (a capacity failure the registry answers with
// evictions) and ErrRateLimited (a policy decision against one client):
// a shard outage is transient infrastructure state, retryable once the
// shard rejoins, and must trigger neither evictions nor throttle
// accounting.
var ErrShardUnavailable = errors.New("serve: shard unavailable")

// Circuit-breaker states, per shard. The life cycle is closed → open
// (breakerThreshold consecutive failures, or one enclave loss) →
// half-open (the registry re-provisioned the shard, and it serves again
// on probation) → closed (first successful query).
const (
	breakerClosed   int32 = 0
	breakerOpen     int32 = 1
	breakerHalfOpen int32 = 2
)

// fleet is the serving state of one shard fleet registered in the
// registry: per-shard availability and breakers, accumulated halo traffic,
// the full-graph fan-out latency histogram surfaced on /metrics, and the
// outage context every full-graph pass of the fleet runs under.
//
// Failure domain: an enclave loss (or breakerThreshold consecutive
// failures) trips a shard's breaker: the shard goes offline, in-flight
// full-graph passes are aborted by cancelling the outage context (the
// fleet's barriers unwind), and a per-shard recovery loop has the registry
// recover the part (registry.RecoverPart) under jittered exponential
// backoff while healthy-shard node queries keep serving — graceful
// degradation instead of an outage.
type fleet struct {
	id string
	sv *core.ShardedVault

	avail     []atomic.Bool
	breaker   []atomic.Int32  // breakerClosed / breakerOpen / breakerHalfOpen
	fails     []atomic.Int32  // consecutive failures toward breakerThreshold
	restarts  []atomic.Uint64 // successful recoveries per shard
	trippedAt []atomic.Int64  // wall ns of the breaker trip, for the recovery span
	halo      []atomic.Int64
	fanout    obs.Histogram
	outage    atomic.Pointer[outage]
}

// outage is the context a fleet's full-graph passes run under until the
// next abort cancels it with its cause.
type outage struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
}

func newOutage() *outage {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &outage{ctx, cancel}
}

// abort fails every full-graph pass in flight on the fleet with cause —
// each unwinds at its next barrier — and arms a fresh context for later
// passes.
func (f *fleet) abort(cause error) {
	f.outage.Swap(newOutage()).cancel(cause)
}

// offlineShard returns the lowest offline shard, or -1 when the whole
// fleet is serving.
func (f *fleet) offlineShard() int {
	for i := range f.avail {
		if !f.avail[i].Load() {
			return i
		}
	}
	return -1
}

// fleet returns the serving state of the fleet registered under id, or
// nil for a vault or an unknown ID. The state is made on first use, and
// made afresh should the ID come to name another fleet.
func (s *MultiServer) fleet(id string) *fleet {
	sv := s.reg.Fleet(id)
	if sv == nil {
		return nil
	}
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if f := s.fleets[id]; f != nil && f.sv == sv {
		return f
	}
	n := sv.Shards()
	f := &fleet{
		id: id, sv: sv,
		avail:     make([]atomic.Bool, n),
		breaker:   make([]atomic.Int32, n),
		fails:     make([]atomic.Int32, n),
		restarts:  make([]atomic.Uint64, n),
		trippedAt: make([]atomic.Int64, n),
		halo:      make([]atomic.Int64, n),
	}
	for i := range f.avail {
		f.avail[i].Store(true)
	}
	f.outage.Store(newOutage())
	s.fleets[id] = f
	return f
}

// setShardAvailable marks shard sh of the fleet registered under vaultID
// as serving or offline. An offline shard fails node queries it owns —
// and every full-graph query, since the fleet's halo barriers need all
// shards — with ErrShardUnavailable. Taking a shard offline also aborts
// any full-graph pass currently in flight, so a fan-out racing the flip
// gets a clean ErrShardUnavailable instead of a hung barrier. Safe at any
// time from any goroutine; it does not touch the breaker, so an
// administratively pulled shard is not "recovered" behind the operator's
// back.
func (s *MultiServer) setShardAvailable(vaultID string, sh int, ok bool) error {
	f := s.fleet(vaultID)
	if f == nil || sh < 0 || sh >= len(f.avail) {
		return fmt.Errorf("serve: %q has no shard %d", vaultID, sh)
	}
	f.avail[sh].Store(ok)
	if !ok {
		f.abort(fmt.Errorf("%w: shard %d taken offline mid-pass", ErrShardUnavailable, sh))
	}
	return nil
}

// noteFullGraph feeds one fan-out's outcome to the breakers: a success
// proved every shard (closing any half-open breaker), a failure blamed
// on a specific shard by core.ShardFault counts against that shard
// alone. Unattributable failures (validation, a deadline that poisoned
// the whole fleet at once) touch no breaker.
func (s *MultiServer) noteFullGraph(f *fleet, err error) {
	if err == nil {
		for sh := range f.breaker {
			s.noteShardSuccess(f, sh)
		}
		return
	}
	var sf *core.ShardFault
	if errors.As(err, &sf) {
		s.noteShardError(f, sf.Shard, err)
	}
}

// noteShardError counts one shard-attributed failure. Enclave loss is
// unambiguous and trips the breaker immediately; other faults trip it
// after breakerThreshold consecutive failures. Outage echoes
// (ErrShardUnavailable) and deadline/cancellation errors never count —
// tripping a healthy shard because a client's deadline was tight would
// turn load into an outage.
func (s *MultiServer) noteShardError(f *fleet, sh int, err error) {
	switch {
	case errors.Is(err, ErrShardUnavailable),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return
	case errors.Is(err, enclave.ErrEnclaveLost):
		s.tripShard(f, sh, err)
	default:
		if f.fails[sh].Add(1) >= breakerThreshold {
			s.tripShard(f, sh, err)
		}
	}
}

// noteShardSuccess resets the shard's consecutive-failure count and
// closes a half-open breaker: the recovered shard answered a real query,
// probation is over.
func (s *MultiServer) noteShardSuccess(f *fleet, sh int) {
	f.fails[sh].Store(0)
	f.breaker[sh].CompareAndSwap(breakerHalfOpen, breakerClosed)
}

// tripShard opens shard sh's breaker (first trip wins), takes the shard
// out of admission, aborts in-flight full-graph passes so no barrier
// hangs waiting for a dead enclave, and starts the shard's background
// recovery loop.
func (s *MultiServer) tripShard(f *fleet, sh int, cause error) {
	if !f.breaker[sh].CompareAndSwap(breakerClosed, breakerOpen) &&
		!f.breaker[sh].CompareAndSwap(breakerHalfOpen, breakerOpen) {
		return // already open: its recovery loop is running
	}
	f.trippedAt[sh].Store(time.Now().UnixNano())
	f.avail[sh].Store(false)
	f.abort(fmt.Errorf("%w: shard %d breaker tripped: %w", ErrShardUnavailable, sh, cause))
	s.recordEvent(obs.SpanFault, sh, 0)
	s.healthWG.Add(1)
	go s.recoverLoop(f, sh)
}

// recoverLoop drives one tripped shard back to serving: jittered
// exponential backoff between attempts, each attempt a
// registry.RecoverPart — drain the fleet's checkouts that touch the shard,
// re-provision it, drop the stale workspaces so the next checkout plans
// afresh. On success the shard re-enters admission half-open. Runs until
// recovery succeeds or the server closes.
func (s *MultiServer) recoverLoop(f *fleet, sh int) {
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
		if s.reg.RecoverPart(f.id, sh) == nil {
			f.restarts[sh].Add(1)
			f.fails[sh].Store(0)
			f.breaker[sh].Store(breakerHalfOpen)
			f.avail[sh].Store(true)
			s.recordEvent(obs.SpanRecover, sh, time.Now().UnixNano()-f.trippedAt[sh].Load())
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// jitter derives a deterministic delay in [0, base/2] from the server
// seed and a stream identifier, de-synchronising backoff schedules
// without nondeterminism: the same seed replays the same chaos run.
func (s *MultiServer) jitter(stream uint64, base time.Duration) time.Duration {
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
func (s *MultiServer) awaitShard(f *fleet, sh int, enq time.Time) bool {
	if f.avail[sh].Load() {
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
		if f.avail[sh].Load() {
			return true
		}
		backoff *= 2
	}
	return f.avail[sh].Load()
}

// recordEvent stores one trace-less fault/recovery span (Rows carries the
// shard) when a flight-recorder ring is wired in.
func (s *MultiServer) recordEvent(kind obs.SpanKind, sh int, dur int64) {
	ring := s.cfg.Trace
	if ring == nil || !ring.Enabled() {
		return
	}
	ring.Record(obs.Span{Kind: kind, Rows: int32(sh), Start: ring.Clock(), Dur: dur})
}

// ShardStats is a per-shard snapshot of one fleet's serving state: the
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

// ShardStats returns the current per-shard snapshot of the fleet
// registered under vaultID; false when vaultID names no fleet.
func (s *MultiServer) ShardStats(vaultID string) (ShardStats, bool) {
	f := s.fleet(vaultID)
	if f == nil {
		return ShardStats{}, false
	}
	shards := f.sv.Shards()
	st := ShardStats{
		Shards:    shards,
		Available: make([]bool, shards),
		Breaker:   make([]int32, shards),
		Restarts:  make([]uint64, shards),
		HaloBytes: make([]int64, shards),
		EPCUsed:   make([]int64, shards),
		EPCFree:   make([]int64, shards),
		EPCLimit:  make([]int64, shards),
		Fanout:    f.fanout.Snapshot(),
	}
	for i := 0; i < shards; i++ {
		st.Available[i] = f.avail[i].Load()
		st.Breaker[i] = f.breaker[i].Load()
		st.Restarts[i] = f.restarts[i].Load()
		st.HaloBytes[i] = f.halo[i].Load()
		encl := f.sv.Shard(i).Enclave
		st.EPCUsed[i] = encl.EPCUsed()
		st.EPCFree[i] = encl.EPCFree()
		st.EPCLimit[i] = encl.EPCLimit()
		st.Ledger = st.Ledger.Add(encl.Ledger())
	}
	return st, true
}

// shardedID is the registry ID NewSharded registers its fleet under.
const shardedID = "fleet"

// ShardedServer is a MultiServer over a private registry holding one
// fleet, with the fleet-level methods its callers know. It stays because
// bench/ names it (and the package's tests drive it); a new caller
// registers the fleet in a registry (registry.RegisterFleet) and serves it
// with NewMulti.
type ShardedServer struct {
	*MultiServer
	reg *registry.Registry
}

// NewSharded serves sv as the one fleet entry of a private registry built
// from cfg.Plan (applied per shard: an EPC budget is each shard enclave's
// own) and cfg.NodeQuery, with cfg.Features registered as the fleet's
// calibration features and node-query gather source, and one full-graph
// workspace — plus one subgraph workspace per shard with NodeQuery —
// planned per worker up front. Fails, releasing what it planned, when a
// shard's share does not fit its enclave. It stays because bench/ names
// it.
func NewSharded(sv *core.ShardedVault, cfg Config) (*ShardedServer, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeQuery != nil && (cfg.Features == nil || cfg.Features.Rows != sv.Nodes()) {
		return nil, fmt.Errorf("serve: node queries need the deployed graph's %d-row feature matrix", sv.Nodes())
	}
	reg := registry.New(nil, registry.Config{WorkspacesPerVault: cfg.Workers, Plan: cfg.Plan, NodeQuery: cfg.NodeQuery})
	if err := warmFleet(reg, sv, cfg); err != nil {
		reg.Close()
		return nil, err
	}
	return &ShardedServer{MultiServer: NewMulti(reg, cfg), reg: reg}, nil
}

// warmFleet registers sv in reg and plans the workspaces NewSharded
// promises into its free lists, failing rather than waiting when they do
// not all fit.
func warmFleet(reg *registry.Registry, sv *core.ShardedVault, cfg Config) error {
	if err := reg.RegisterFleet(shardedID, sv); err != nil {
		return err
	}
	if cfg.Features != nil {
		if err := sv.SetCalibrationFeatures(cfg.Features); err != nil {
			return fmt.Errorf("serve: registering calibration features: %w", err)
		}
	}
	if cfg.NodeQuery != nil {
		if err := reg.EnableNodeQueries(shardedID, cfg.Features); err != nil {
			return err
		}
	}
	if err := reg.Warm(shardedID, cfg.Workers); err != nil {
		return fmt.Errorf("serve: planning the fleet's workspaces for %d workers: %w", cfg.Workers, err)
	}
	return nil
}

// ShardStats is MultiServer.ShardStats on the fleet. It stays because
// bench/ names it.
func (s *ShardedServer) ShardStats() ShardStats {
	st, _ := s.MultiServer.ShardStats(shardedID)
	return st
}

// Close stops the server and closes its private registry, releasing every
// workspace across every shard enclave. The fleet itself stays deployed.
// Idempotent.
func (s *ShardedServer) Close() {
	s.MultiServer.Close()
	s.reg.Close()
}

// NewShardedAPI is NewAPI over a ShardedServer: every catalogued vault is
// served by the server's one fleet. It stays because bench/ names it.
func NewShardedAPI(srv *ShardedServer, cfg APIConfig) *API {
	a := NewAPI(srv.MultiServer, srv.reg, cfg)
	a.fleetID = shardedID
	return a
}
