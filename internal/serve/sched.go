package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
)

// request is one queued inference — full-graph or node-level, for any
// vault or fleet. Requests are pooled; submit fills one in and clears it
// again.
type request struct {
	vault  string      // the registry ID the request is served from
	x      *mat.Matrix // full-graph input
	nodes  []int       // non-nil marks a node-level query
	out    []int
	scores [][]float64 // non-nil marks a score query; one row per label
	err    error
	enq    time.Time
	done   chan struct{}
}

// MultiServer is the package's one serving core over a registry.Registry:
// a bounded queue, one admission protocol (submit), workers that drain it
// in micro-batches, and per batch the split into same-vault runs,
// full-graph requests answered one by one and node queries validated,
// grouped by part, coalesced into shared extractions and scattered back.
// Workers check a workspace out of the registry for each run of
// consecutive same-vault requests in a drained batch — so a burst of
// same-vault traffic pays the registry exactly once — and which vaults
// hold EPC at any moment follows the traffic: hot vaults keep cached
// workspaces (and stay on the allocation-free path), cold vaults pay a
// plan — and possibly evict an idle tenant — on their next request. That
// churn (plans, evictions, per-vault residency) is in the registry's own
// Stats; Stats here is the queue-to-answer accounting. A shard fleet
// registered in the registry is one more entry, with per-part
// availability, circuit breakers and recovery (fleet.go).
//
// A worker yields the processor once after a full-graph checkout, lease
// in hand. With fewer processors than workers a pass otherwise runs to
// completion before the handler of a request that arrived beside it can
// even enqueue it, so two workers hold workspaces of one vault together —
// which is what makes the registry plan the vault's second workspace —
// only when the runtime's 10 ms preemption tick lands inside a pass: with
// passes near 10 ms that is a coin toss per process, and the plan (and its
// EPC) lands on a random request minutes in, or never. Yielding makes
// requests that arrive together check out together on any GOMAXPROCS, so
// residency follows the concurrency the clients offer and the extra plan
// is paid when that concurrency first shows. Node queries do not yield:
// they are short and coalesce on one worker.
type MultiServer struct {
	cfg    Config
	reg    *registry.Registry
	leases []lease // one per worker, refilled from the registry run by run
	reqs   chan *request
	pool   sync.Pool

	// sendMu lets Close wait out in-flight sends before closing the
	// queue channel.
	sendMu  sync.RWMutex
	closed  atomic.Bool
	closing sync.Once
	wg      sync.WaitGroup
	started time.Time

	// Per-fleet serving state (fleet.go), made on first use, and the
	// recovery loops it starts: stop ends them at Close.
	fleetMu  sync.Mutex
	fleets   map[string]*fleet
	stop     chan struct{}
	healthWG sync.WaitGroup

	counters
}

// NewMulti starts a worker pool over the registry's vaults and fleets.
// Nothing is planned up front: workspace residency is entirely
// demand-driven, so a fleet larger than the EPC starts instantly and pages
// vaults in as traffic arrives. A single vault is served the same way, as
// a one-vault registry. The caller keeps ownership of the registry; Close
// stops the workers without closing it. A cfg that fails Validate is
// programmer error: NewMulti panics with its *knob.RangeError.
func NewMulti(reg *registry.Registry, cfg Config) *MultiServer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ConfigKnobs.Defaults(&cfg)
	s := &MultiServer{
		cfg:     cfg,
		reg:     reg,
		leases:  make([]lease, cfg.Workers),
		reqs:    make(chan *request, cfg.Workers*cfg.MaxBatch*queueSlack),
		started: time.Now(),
		fleets:  map[string]*fleet{},
		stop:    make(chan struct{}),
	}
	s.pool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// submit is the one admission path under every public Predict* method:
// gate, enqueue (blocking for backpressure when the queue is full), wait
// for a worker, hand back freshly allocated results. node marks a
// node-level query over nodes — which must not be mutated until submit
// returns — otherwise the query is the full-graph pass over x.
func (s *MultiServer) submit(vault string, x *mat.Matrix, nodes []int, node, scores bool) ([][]float64, []int, error) {
	if scores && !s.cfg.ExposeScores {
		return nil, nil, ErrScoresDisabled
	}
	n := len(nodes)
	if !node {
		if x == nil {
			return nil, nil, errNoFeatures
		}
		nodes, n = nil, x.Rows
	} else if n == 0 {
		return [][]float64{}, []int{}, nil // nothing asked: answered without enqueuing
	}
	req := s.pool.Get().(*request)
	req.vault, req.x, req.nodes = vault, x, nodes
	req.out = make([]int, n)
	if scores {
		req.scores = make([][]float64, n)
	}
	req.enq = time.Now()

	s.sendMu.RLock()
	if s.closed.Load() {
		s.sendMu.RUnlock()
		*req = request{done: req.done}
		s.pool.Put(req)
		return nil, nil, ErrClosed
	}
	s.requests.Add(1)
	s.reqs <- req
	s.sendMu.RUnlock()

	<-req.done
	rows, out, err := req.scores, req.out, req.err
	*req = request{done: req.done}
	s.pool.Put(req)
	if err != nil {
		return nil, nil, err
	}
	return rows, out, nil
}

// worker drains the queue in micro-batches: whatever else is already
// queued, up to MaxBatch, joins the request that woke it. A batch is
// served as runs of consecutive same-vault requests, each run's
// full-graph requests under one checkout and its node queries under
// another.
func (s *MultiServer) worker(w int) {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	st := &workerState{}
	for req := range s.reqs {
		batch = append(batch[:0], req)
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
		for i := 0; i < len(batch); {
			vault := batch[i].vault
			st.full, st.node = st.full[:0], st.node[:0]
			for ; i < len(batch) && batch[i].vault == vault; i++ {
				if batch[i].nodes != nil {
					st.node = append(st.node, batch[i])
				} else {
					st.full = append(st.full, batch[i])
				}
			}
			if len(st.full) > 0 {
				s.serveFull(w, vault, st.full)
			}
			if len(st.node) > 0 {
				s.serveNodes(w, vault, st)
			}
		}
	}
}

// serveFull answers one run's full-graph requests under a single
// checkout, copying each answer out before the next pass reuses the
// workspace.
func (s *MultiServer) serveFull(w int, vault string, run []*request) {
	if err := s.checkout(w, vault); err != nil {
		for _, r := range run {
			s.finish(r, err)
		}
		return
	}
	defer s.release(w)
	for _, r := range run {
		labels, logits, spill, reused, err := s.runFull(w, r)
		if err == nil {
			copy(r.out, labels)
			for i := range r.scores {
				r.scores[i] = s.cfg.defendedRow(logits.Row(i))
			}
			s.spillBytes.Add(spill)
			if reused {
				s.backboneReused.Add(1)
			} else {
				s.backboneComputed.Add(1)
			}
		}
		s.finish(r, err)
	}
}

// workerState is one worker's reusable buffers: the run being served split
// by kind, its node queries bucketed by group, and one coalescer per group
// so unions never mix groups.
type workerState struct {
	full, node []*request
	groups     [][]*request
	cos        []coalescer
}

// serveNodes answers one run's node queries. Routing is per request —
// unroutable queries fail alone — and groups them by the part that owns
// their first seed (a vault has one part). Each group is served under one
// checkout of its part's subgraph workspace: out-of-range seeds fail alone,
// so one bad query can never fail the valid ones coalesced beside it, then
// the group's requests are packed into as few shared extractions as the
// workspace's seed cap admits, and every request reads its labels (and
// defended score rows) off its chunk's union.
func (s *MultiServer) serveNodes(w int, vault string, st *workerState) {
	f := s.fleet(vault)
	for g := range st.groups {
		st.groups[g] = st.groups[g][:0]
	}
	for _, r := range st.node {
		g, err := s.route(f, r)
		if err != nil {
			s.finish(r, err)
			continue
		}
		for len(st.groups) <= g {
			st.groups = append(st.groups, nil)
			st.cos = append(st.cos, coalescer{})
		}
		st.groups[g] = append(st.groups[g], r)
	}
	for g, reqs := range st.groups {
		if len(reqs) > 0 {
			s.serveGroup(w, vault, f, g, reqs, &st.cos[g])
		}
	}
}

// serveGroup answers one group's node queries under a single checkout of
// part g's subgraph workspace.
func (s *MultiServer) serveGroup(w int, vault string, f *fleet, g int, reqs []*request, co *coalescer) {
	n, maxSeeds, err := s.checkoutPart(w, vault, f, g)
	if err != nil {
		for _, r := range reqs {
			s.finish(r, err)
		}
		return
	}
	defer s.releasePart(w)
	valid := reqs[:0]
	for _, r := range reqs {
		if nodesInRange(r.nodes, n) {
			valid = append(valid, r)
		} else {
			s.finish(r, core.ErrNodeOutOfRange)
		}
	}
	if co.maxSeeds != maxSeeds {
		*co = newCoalescer(maxSeeds)
	}
	co.pack(valid, s.finish, func(chunk []*request, union []int) {
		// One score query in the chunk upgrades the whole extraction to
		// the scores variant; label-only requests still read just their
		// labels.
		scores := false
		for _, r := range chunk {
			scores = scores || r.scores != nil
		}
		labels, logits, err := s.runUnion(w, union, scores, chunk)
		for _, r := range chunk {
			if err == nil {
				for k, u := range r.nodes {
					j := indexOf(union, u)
					r.out[k] = labels[j]
					if r.scores != nil {
						r.scores[k] = s.cfg.defendedRow(logits.Row(j))
					}
				}
			}
			s.finish(r, err)
		}
	})
}

// finish completes one request: outcome and enqueue→answer latency into
// the counters, then the wake-up its submit is waiting on.
func (s *MultiServer) finish(r *request, err error) {
	r.err = err
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineExceeded.Add(1)
	}
	s.observe(err, r.enq, r.nodes != nil)
	r.done <- struct{}{}
}

// Stats returns a snapshot of the serving counters.
func (s *MultiServer) Stats() Stats {
	return s.snapshot(s.started)
}

// Close is the one Close protocol: refuse new requests, wait out in-flight
// sends, close the queue so the workers drain it and exit — releasing
// every checkout to the registry as they go — then stop the fleets'
// recovery loops. The registry itself (and the deployed vaults and fleets)
// remain usable. Idempotent; concurrent callers block until it completes.
func (s *MultiServer) Close() {
	s.closing.Do(func() {
		s.closed.Store(true)
		s.sendMu.Lock()
		close(s.reqs)
		s.sendMu.Unlock()
		s.wg.Wait()
		close(s.stop)
		s.healthWG.Wait()
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
// batches, so steady-state packing never allocates.
type coalescer struct {
	maxSeeds int
	union    []int
	chunk    []*request
}

// newCoalescer sizes a coalescer for unions of maxSeeds seeds.
func newCoalescer(maxSeeds int) coalescer {
	return coalescer{
		maxSeeds: maxSeeds,
		union:    make([]int, 0, maxSeeds),
		chunk:    make([]*request, 0, 16),
	}
}

// pack walks reqs in arrival order, growing the current union until the
// next request's unseen seeds would overflow it, then flushes the
// accumulated chunk and its union through serve. Requests whose own
// distinct seed set cannot fit any union fail through reject with
// subgraph.ErrTooManySeeds; empty requests complete through reject with a
// nil error.
func (c *coalescer) pack(reqs []*request, reject func(*request, error), serve func(chunk []*request, union []int)) {
	c.union = c.union[:0]
	c.chunk = c.chunk[:0]
	flush := func() {
		if len(c.chunk) > 0 {
			serve(c.chunk, c.union)
			c.union = c.union[:0]
			c.chunk = c.chunk[:0]
		}
	}
	for _, r := range reqs {
		if len(r.nodes) == 0 {
			reject(r, nil) // zero labels requested: answered without work
			continue
		}
		if distinctCount(r.nodes) > c.maxSeeds {
			reject(r, subgraph.ErrTooManySeeds)
			continue
		}
		if len(c.union)+c.countFresh(r.nodes) > c.maxSeeds {
			flush()
		}
		for _, u := range r.nodes {
			if indexOf(c.union, u) < 0 {
				c.union = append(c.union, u)
			}
		}
		c.chunk = append(c.chunk, r)
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
