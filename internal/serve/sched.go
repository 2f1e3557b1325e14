package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
)

// request is one queued inference — full-graph or node-level, for any
// backend. Requests are pooled; submit fills one in and clears it again.
type request struct {
	vault  string      // the registry backend's routing key; the fleet ignores it
	x      *mat.Matrix // full-graph input
	nodes  []int       // non-nil marks a node-level query
	out    []int
	scores [][]float64 // non-nil marks a score query; one row per label
	err    error
	enq    time.Time
	done   chan struct{}
}

// backend is everything that differs between the two servers; the
// scheduler owns the rest (queue, admission, micro-batching, validation,
// coalescing, scatter, counters, shutdown). w is the calling worker's
// index: a backend keeps whatever it pins or checks out per worker, and
// the scheduler never runs two calls with the same w concurrently.
//
// The invariants a backend must keep (DESIGN.md, "Serving core"): one
// checkout serves a whole same-vault run; a union never mixes groups;
// runUnion bounds a chunk by its oldest member; and the views run*
// return stay valid until the same worker's next run* or release, so the
// scheduler can copy answers out of them before the workspace is reused.
type backend interface {
	// checkout obtains what worker w needs to serve a run of same-vault
	// requests — its full-graph workspace, or for node its subgraph
	// workspace, in which case it also reports the vault's node count and
	// the most distinct seeds one union may hold. An error fails the run.
	checkout(w int, vault string, node bool) (nodes, maxSeeds int, err error)
	// release returns what the matching successful checkout obtained.
	release(w int, node bool)
	// route names the group (a small non-negative int) whose node queries
	// r may share an extraction with, once r's seeds are known to be in
	// range. An error fails r alone. It may block: the fleet waits out a
	// tripped shard's recovery here.
	route(r *request) (group int, err error)
	// runFull answers one full-graph request on w's workspace: one label
	// per row, the logits too when r asks for scores, the modelled spill
	// traffic of the pass, and whether it reused the vault's public-half
	// store instead of running the backbone.
	runFull(w int, r *request) (labels []int, logits *mat.Matrix, spill int64, reused bool, err error)
	// runUnion answers one coalesced extraction for group: a label (and,
	// with scores, a logits row) per union entry. chunk holds the requests
	// sharing it, oldest first.
	runUnion(w, group int, union []int, scores bool, chunk []*request) (labels []int, logits *mat.Matrix, err error)
	// teardown runs once, after the last worker has exited.
	teardown()
}

// scheduler is the one serving core under MultiServer and ShardedServer:
// a bounded queue, one admission protocol (submit), workers that drain it
// in micro-batches, and per batch the split into same-vault runs,
// full-graph requests answered one by one and node queries validated,
// grouped, coalesced into shared extractions and scattered back.
// Everything vault-, registry- or fleet-specific is behind backend.
type scheduler struct {
	be          backend
	cfg         Config
	nodeQueries bool // node queries can be served at all (planned up front, or left to the registry)
	reqs        chan *request
	pool        sync.Pool

	// sendMu lets shutdown wait out in-flight sends before closing the
	// queue channel.
	sendMu  sync.RWMutex
	closed  atomic.Bool
	closing sync.Once
	wg      sync.WaitGroup
	started time.Time

	counters
}

// newScheduler builds an idle scheduler; cfg must already carry its
// defaults. run starts it once the backend around it is complete.
func newScheduler(cfg Config, nodeQueries bool) *scheduler {
	s := &scheduler{
		cfg:         cfg,
		nodeQueries: nodeQueries,
		reqs:        make(chan *request, cfg.QueueDepth),
		started:     time.Now(),
	}
	s.pool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	return s
}

// run starts the workers over be.
func (s *scheduler) run(be backend) {
	s.be = be
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
}

// submit is the one admission path under every public Predict* method:
// gate, enqueue (blocking for backpressure when the queue is full), wait
// for a worker, hand back freshly allocated results. node marks a
// node-level query over nodes — which must not be mutated until submit
// returns — otherwise the query is the full-graph pass over x.
func (s *scheduler) submit(vault string, x *mat.Matrix, nodes []int, node, scores bool) ([][]float64, []int, error) {
	if scores && !s.cfg.ExposeScores {
		return nil, nil, ErrScoresDisabled
	}
	n := len(nodes)
	if !node {
		if x == nil {
			return nil, nil, errNoFeatures
		}
		nodes, n = nil, x.Rows
	} else if !s.nodeQueries {
		return nil, nil, ErrNodeQueriesDisabled
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
func (s *scheduler) worker(w int) {
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
func (s *scheduler) serveFull(w int, vault string, run []*request) {
	_, _, err := s.be.checkout(w, vault, false)
	if err != nil {
		for _, r := range run {
			s.finish(r, err)
		}
		return
	}
	defer s.be.release(w, false)
	for _, r := range run {
		labels, logits, spill, reused, err := s.be.runFull(w, r)
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

// serveNodes answers one run's node queries under a single checkout.
// Validation and routing are per request — out-of-range seeds and
// unroutable queries fail alone, so one bad query can never fail the valid
// ones coalesced beside it — then each group's requests are packed into as
// few shared extractions as maxSeeds admits, and every request reads its
// labels (and defended score rows) off its chunk's union.
func (s *scheduler) serveNodes(w int, vault string, st *workerState) {
	n, maxSeeds, err := s.be.checkout(w, vault, true)
	if err != nil {
		for _, r := range st.node {
			s.finish(r, err)
		}
		return
	}
	defer s.be.release(w, true)
	for g := range st.groups {
		st.groups[g] = st.groups[g][:0]
	}
	for _, r := range st.node {
		if !nodesInRange(r.nodes, n) {
			s.finish(r, core.ErrNodeOutOfRange)
			continue
		}
		g, err := s.be.route(r)
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
		if len(reqs) == 0 {
			continue
		}
		if st.cos[g].maxSeeds != maxSeeds {
			st.cos[g] = newCoalescer(maxSeeds)
		}
		st.cos[g].pack(reqs, s.finish, func(chunk []*request, union []int) {
			// One score query in the chunk upgrades the whole extraction
			// to the scores variant; label-only requests still read just
			// their labels.
			scores := false
			for _, r := range chunk {
				scores = scores || r.scores != nil
			}
			labels, logits, err := s.be.runUnion(w, g, union, scores, chunk)
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
}

// finish completes one request: outcome and enqueue→answer latency into
// the counters, then the wake-up its submit is waiting on.
func (s *scheduler) finish(r *request, err error) {
	r.err = err
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadlineExceeded.Add(1)
	}
	s.observe(err, r.enq, r.nodes != nil)
	r.done <- struct{}{}
}

// Stats returns a snapshot of the serving counters.
func (s *scheduler) Stats() Stats {
	return s.snapshot(s.started)
}

// shutdown is the one Close protocol: refuse new requests, wait out
// in-flight sends, close the queue so the workers drain it and exit, then
// tear the backend down. Idempotent; concurrent callers block until
// teardown completes.
func (s *scheduler) shutdown() {
	s.closing.Do(func() {
		s.closed.Store(true)
		s.sendMu.Lock()
		close(s.reqs)
		s.sendMu.Unlock()
		s.wg.Wait()
		s.be.teardown()
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
