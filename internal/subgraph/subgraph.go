// Package subgraph is the minibatch inference engine under GNNVault's
// node-level serving path: GraphSAGE-style L-hop neighborhood expansion
// with per-hop fanout sampling, followed by induced-subgraph extraction
// that relabels node IDs into a small CSR whose values are gathered from
// the full GCN-normalised adjacency.
//
// Full-graph GCN inference costs O(graph) per query; a node-level query
// ("what is the label of node u?") touches only u's L-hop neighborhood.
// The engine turns each query batch into a tiny induced-CSR forward pass:
//
//  1. Expand: BFS from the seed nodes over one CSR adjacency, visiting at
//     most Fanout sampled neighbours per node per hop. Seeds occupy local
//     IDs 0..len(seeds)-1, so the caller reads its answers off the first
//     rows of any per-node result.
//  2. Induce: for any adjacency over the same node universe, materialise
//     the sub-CSR restricted to the extracted set — values copied from
//     the full normalised operator, rows capped at Fanout entries with
//     Horvitz–Thompson rescaling so sampled rows estimate the full
//     restricted aggregate.
//  3. GatherRowsInto: copy the extracted nodes' feature rows into a
//     caller-owned dense workspace.
//
// Everything runs against pre-sized, caller-owned buffers (Plan bounds
// every buffer from hops × fanout × seeds at plan time, which is when the
// enclave EPC is charged), so the hot path performs zero heap
// allocations. Sampling is deterministic: the same (seeds, Config) always
// extracts the same subgraph.
package subgraph

import (
	"errors"
	"fmt"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// Named errors for the hot serving path. They carry no per-call context so
// callers never pay a fmt in the query loop; wrap them at the edges.
var (
	// ErrSeedOutOfRange is returned when a seed node ID falls outside the
	// planned graph's node range.
	ErrSeedOutOfRange = errors.New("subgraph: seed node out of range")
	// ErrDuplicateSeed is returned when the same seed appears twice in one
	// extraction; callers coalesce and deduplicate batches first.
	ErrDuplicateSeed = errors.New("subgraph: duplicate seed node")
	// ErrTooManySeeds is returned when a batch exceeds the plan's MaxSeeds.
	ErrTooManySeeds = errors.New("subgraph: seed batch exceeds planned capacity")
	// ErrNoSeeds is returned for an empty seed batch.
	ErrNoSeeds = errors.New("subgraph: empty seed batch")
)

// Config fixes the sampling geometry of one subgraph serving plan.
type Config struct {
	// Hops is the BFS depth L. For exact-GCN receptive fields it should
	// be at least the total message-passing depth of the served model;
	// smaller values trade accuracy for latency.
	Hops int
	// Fanout caps how many neighbours are sampled per node per hop, and
	// how many in-set neighbours an induced row keeps. 0 (or negative)
	// means unlimited: exact L-hop extraction, worst-case O(graph).
	Fanout int
	// Seed drives the deterministic sampler. Extraction is a pure
	// function of (Seed, seed nodes), independent of previous queries.
	Seed uint64
}

// Plan bounds every buffer a subgraph workspace needs from the sampling
// geometry, so callers (and the enclave EPC ledger) are charged once, at
// plan time, for the worst case.
type Plan struct {
	Cfg Config
	// MaxSeeds is the largest seed batch one extraction accepts.
	MaxSeeds int
	// N is the full graph's node count.
	N int
	// CapNodes is the worst-case extracted node count:
	// MaxSeeds·(1+F+F²+…+F^L) clamped to N (and exactly N for unlimited
	// fanout).
	CapNodes int
}

// NewPlan sizes a plan for batches of up to maxSeeds seeds over an
// n-node graph. It panics on non-positive hops, maxSeeds, or n — plan
// construction is configuration, not a request path.
func NewPlan(cfg Config, maxSeeds, n int) Plan {
	if cfg.Hops <= 0 || maxSeeds <= 0 || n <= 0 {
		panic(fmt.Sprintf("subgraph: invalid plan (hops=%d maxSeeds=%d n=%d)", cfg.Hops, maxSeeds, n))
	}
	if maxSeeds > n {
		maxSeeds = n
	}
	cap := n
	if cfg.Fanout > 0 {
		frontier, total := maxSeeds, maxSeeds
		for h := 0; h < cfg.Hops && total < n; h++ {
			frontier *= cfg.Fanout
			total += frontier
		}
		if total < n {
			cap = total
		}
	}
	return Plan{Cfg: cfg, MaxSeeds: maxSeeds, N: n, CapNodes: cap}
}

// CapEdges bounds the non-zeros of one induced CSR over an adjacency with
// the given full-graph nnz: each extracted row keeps at most Fanout
// neighbours plus its self loop, and can never exceed the full operator.
func (p Plan) CapEdges(nnz int) int {
	if p.Cfg.Fanout <= 0 {
		return nnz
	}
	cap := p.CapNodes * (p.Cfg.Fanout + 1)
	if cap > nnz {
		cap = nnz
	}
	return cap
}

// Workspace holds the expansion state for one extraction stream: visit
// stamps, the global→local relabeling, the extracted node list, and the
// deterministic sampler. One Workspace belongs to one goroutine at a time.
type Workspace struct {
	plan Plan

	// stamp[u]==epoch marks u as extracted this round; epochs avoid an
	// O(N) clear per query. local[u] is u's local (relabeled) ID, valid
	// only where stamped.
	stamp []uint32
	epoch uint32
	local []int

	nodes  []int // extracted global IDs; [0:numSeeds] are the seeds, in order
	hopEnd []int // hopEnd[h] = node count after hop h (hopEnd[0] = numSeeds)

	rng  uint64 // xorshift64* sampler state
	resv []int  // reservoir of sampled row positions, cap Fanout
}

// NewWorkspace allocates the expansion buffers the plan bounds.
func (p Plan) NewWorkspace() *Workspace {
	return &Workspace{
		plan:   p,
		stamp:  make([]uint32, p.N),
		local:  make([]int, p.N),
		nodes:  make([]int, 0, p.CapNodes),
		hopEnd: make([]int, 0, p.Cfg.Hops+1),
		resv:   make([]int, max(p.Cfg.Fanout, 0)),
	}
}

// Plan returns the sizing this workspace was built from.
func (ws *Workspace) Plan() Plan { return ws.plan }

// NumBytes returns the workspace's buffer footprint (stamps, relabeling,
// node list, reservoir), for memory accounting.
func (ws *Workspace) NumBytes() int64 {
	return int64(len(ws.stamp))*4 +
		int64(len(ws.local)+cap(ws.nodes)+cap(ws.hopEnd)+cap(ws.resv))*8
}

// Nodes returns the extracted global node IDs of the last Expand, seeds
// first. The slice aliases workspace memory and is overwritten by the
// next Expand.
func (ws *Workspace) Nodes() []int { return ws.nodes }

// xorshift64* step; splitmix-style seeding happens in reseed.
func (ws *Workspace) next() uint64 {
	x := ws.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	ws.rng = x
	return x * 0x2545F4914F6CDD1D
}

// intn returns a deterministic sample from [0,n). n must be positive.
func (ws *Workspace) intn(n int) int {
	return int(ws.next() % uint64(n))
}

// reseed derives the sampler state from the plan seed and the seed batch,
// so extraction is a pure function of the query.
func (ws *Workspace) reseed(seeds []int) {
	h := ws.plan.Cfg.Seed ^ 0x9E3779B97F4A7C15
	for _, s := range seeds {
		h ^= uint64(s) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	}
	if h == 0 {
		h = 1 // xorshift state must be non-zero
	}
	ws.rng = h
}

// bump starts a new extraction epoch, clearing stamps lazily (a full
// clear happens only on uint32 wraparound).
func (ws *Workspace) bump() {
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.stamp)
		ws.epoch = 1
	}
}

// visit stamps global node v with the next local ID if unseen.
func (ws *Workspace) visit(v int) {
	if ws.stamp[v] != ws.epoch {
		ws.stamp[v] = ws.epoch
		ws.local[v] = len(ws.nodes)
		ws.nodes = append(ws.nodes, v)
	}
}

// Expand runs the L-hop BFS from seeds over adj, sampling at most Fanout
// non-self neighbours per expanded node per hop (reservoir sampling, so
// every neighbour is equally likely). It returns the extracted node
// count. Seeds take local IDs 0..len(seeds)-1; later nodes follow in BFS
// discovery order, which keeps each hop's rows contiguous in the induced
// CSR (frontier locality). Expand never allocates.
func (ws *Workspace) Expand(adj *graph.NormAdjacency, seeds []int) (int, error) {
	if adj.N != ws.plan.N {
		return 0, fmt.Errorf("subgraph: adjacency over %d nodes, plan over %d", adj.N, ws.plan.N)
	}
	if len(seeds) == 0 {
		return 0, ErrNoSeeds
	}
	if len(seeds) > ws.plan.MaxSeeds {
		return 0, ErrTooManySeeds
	}
	ws.bump()
	ws.nodes = ws.nodes[:0]
	ws.hopEnd = ws.hopEnd[:0]
	for _, s := range seeds {
		if s < 0 || s >= ws.plan.N {
			return 0, ErrSeedOutOfRange
		}
		if ws.stamp[s] == ws.epoch {
			return 0, ErrDuplicateSeed
		}
		ws.visit(s)
	}
	ws.reseed(seeds)
	ws.hopEnd = append(ws.hopEnd, len(ws.nodes))

	fanout := ws.plan.Cfg.Fanout
	lo, hi := 0, len(ws.nodes)
	for h := 0; h < ws.plan.Cfg.Hops; h++ {
		for i := lo; i < hi; i++ {
			u := ws.nodes[i]
			rlo, rhi := adj.RowPtr[u], adj.RowPtr[u+1]
			// rhi-rlo counts the self loop too, so this bound is safe even
			// for operators without one.
			if fanout <= 0 || rhi-rlo <= fanout {
				// Unlimited (or small-degree) row: visit every neighbour.
				for p := rlo; p < rhi; p++ {
					if v := adj.ColIdx[p]; v != u {
						ws.visit(v)
					}
				}
				continue
			}
			// Reservoir-sample fanout of the non-self entries.
			seen := 0
			for p := rlo; p < rhi; p++ {
				if adj.ColIdx[p] == u {
					continue
				}
				if seen < fanout {
					ws.resv[seen] = p
				} else if j := ws.intn(seen + 1); j < fanout {
					ws.resv[j] = p
				}
				seen++
			}
			for _, p := range ws.resv[:min(seen, fanout)] {
				ws.visit(adj.ColIdx[p])
			}
		}
		ws.hopEnd = append(ws.hopEnd, len(ws.nodes))
		lo, hi = hi, len(ws.nodes)
	}
	return len(ws.nodes), nil
}

// CSRSpace holds one induced sub-CSR's pre-sized buffers plus the
// graph.NormAdjacency header that views them. A plan typically owns two:
// one for the public substitute operator (normal world) and one for the
// private operator (enclave-resident, EPC-charged).
type CSRSpace struct {
	rowPtr []int
	colIdx []int
	val    []float64
	sub    graph.NormAdjacency
}

// NewCSRSpace sizes an induced-CSR buffer set for adjacencies with up to
// nnz full-graph non-zeros.
func (p Plan) NewCSRSpace(nnz int) *CSRSpace {
	capEdges := p.CapEdges(nnz)
	return &CSRSpace{
		rowPtr: make([]int, p.CapNodes+1),
		colIdx: make([]int, 0, capEdges),
		val:    make([]float64, 0, capEdges),
	}
}

// NumBytes returns the buffer footprint — the quantity charged against
// the enclave EPC for the private operator's CSR space.
func (cs *CSRSpace) NumBytes() int64 {
	return int64(len(cs.rowPtr))*8 + int64(cap(cs.colIdx))*8 + int64(cap(cs.val))*8
}

// Sub returns the induced operator of the last Induce into this space.
// The view aliases the space's buffers and is overwritten by the next
// Induce.
func (cs *CSRSpace) Sub() *graph.NormAdjacency { return &cs.sub }

// Induce materialises the sub-CSR of adj restricted to the last Expand's
// node set, relabeled to local IDs. adj may be any normalised operator
// over the same node universe — the expansion adjacency or another one
// (GNNVault induces the private operator over the publicly-expanded set).
//
// Values are gathered from the full operator, so rows whose neighbourhood
// is entirely extracted reproduce the full-graph aggregation exactly.
// When Fanout caps a row, the kept non-self values are rescaled by
// (candidates/kept) — the Horvitz–Thompson estimate of the restricted row
// aggregate. Self loops are always kept and never rescaled. Induce never
// allocates.
func (ws *Workspace) Induce(adj *graph.NormAdjacency, cs *CSRSpace) (*graph.NormAdjacency, error) {
	if adj.N != ws.plan.N {
		return nil, fmt.Errorf("subgraph: adjacency over %d nodes, plan over %d", adj.N, ws.plan.N)
	}
	fanout := ws.plan.Cfg.Fanout
	cs.colIdx = cs.colIdx[:0]
	cs.val = cs.val[:0]
	cs.rowPtr[0] = 0
	for i, u := range ws.nodes {
		selfVal := 0.0
		hasSelf := false
		kept := 0 // non-self in-set entries appended (or reservoir-held)
		seen := 0 // non-self in-set candidates
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v := adj.ColIdx[p]
			if v == u {
				selfVal = adj.Val[p]
				hasSelf = true
				continue
			}
			if ws.stamp[v] != ws.epoch {
				continue
			}
			if fanout <= 0 || seen < fanout {
				cs.colIdx = append(cs.colIdx, ws.local[v])
				cs.val = append(cs.val, adj.Val[p])
				kept++
			} else if j := ws.intn(seen + 1); j < fanout {
				// Replace a reservoir slot in the already-appended row.
				at := len(cs.colIdx) - kept + j
				cs.colIdx[at] = ws.local[v]
				cs.val[at] = adj.Val[p]
			}
			seen++
		}
		if fanout > 0 && seen > kept && kept > 0 {
			// Row was sampled: rescale survivors to estimate the full
			// restricted aggregate.
			scale := float64(seen) / float64(kept)
			for at := len(cs.val) - kept; at < len(cs.val); at++ {
				cs.val[at] *= scale
			}
		}
		if hasSelf {
			cs.colIdx = append(cs.colIdx, i)
			cs.val = append(cs.val, selfVal)
		}
		cs.rowPtr[i+1] = len(cs.colIdx)
	}
	s := len(ws.nodes)
	cs.sub = graph.NormAdjacency{
		N:      s,
		RowPtr: cs.rowPtr[:s+1],
		ColIdx: cs.colIdx,
		Val:    cs.val,
	}
	return &cs.sub, nil
}

// GatherRowsInto copies x's rows for the given global node IDs into dst's
// first len(nodes) rows. dst must already be viewed to len(nodes) rows of
// x.Cols columns; the copy never allocates.
func GatherRowsInto(dst, x *mat.Matrix, nodes []int) {
	if dst.Rows != len(nodes) || dst.Cols != x.Cols {
		panic(fmt.Sprintf("subgraph: gather destination %s, want %dx%d", dst.Shape(), len(nodes), x.Cols))
	}
	d := x.Cols
	for i, u := range nodes {
		copy(dst.Data[i*d:(i+1)*d], x.Data[u*d:(u+1)*d])
	}
}
