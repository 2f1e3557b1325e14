package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/mat"
)

// lease is what one worker holds of one registry entry while it serves a
// run or a group: the entry's full-graph workspace, or one part's subgraph
// workspace with the part's vault and the public features node extractions
// gather from; f is the entry's fleet state, nil for a vault.
type lease struct {
	id   string
	f    *fleet
	ws   *core.Workspace
	v    *core.Vault
	sub  *core.SubgraphWorkspace
	part int
	x    *mat.Matrix
}

// checkout fills worker w's lease with a full-graph workspace of the entry
// registered under id.
func (s *MultiServer) checkout(w int, id string) error {
	h := &s.leases[w]
	v, ws, err := s.reg.Acquire(id)
	if err != nil {
		return err
	}
	runtime.Gosched() // lease held: see the type's comment
	h.id, h.ws, h.f = id, ws, nil
	if v == nil {
		h.f = s.fleet(id)
	}
	return nil
}

func (s *MultiServer) release(w int) {
	h := &s.leases[w]
	s.reg.Release(h.id, h.ws)
}

// checkoutPart fills worker w's lease with part p's subgraph workspace —
// which also brings the part's vault and the entry's registered features —
// and reports the graph's node count and the most distinct seeds one union
// may hold.
func (s *MultiServer) checkoutPart(w int, id string, f *fleet, p int) (nodes, maxSeeds int, err error) {
	h := &s.leases[w]
	if h.v, h.sub, h.x, err = s.reg.AcquireSubgraphPart(id, p); err != nil {
		return 0, 0, err
	}
	h.id, h.f, h.part = id, f, p
	return h.v.Nodes(), h.sub.MaxSeeds(), nil
}

func (s *MultiServer) releasePart(w int) {
	h := &s.leases[w]
	s.reg.ReleaseSubgraphPart(h.id, h.part, h.sub)
}

// route names the part whose node queries r may share an extraction with:
// 0 on a vault, and on a fleet the shard owning r's first seed — unions
// never mix shards — after waiting out a tripped owner under the retry
// policy.
func (s *MultiServer) route(f *fleet, r *request) (int, error) {
	if f == nil {
		return 0, nil
	}
	sh, err := f.sv.RouteSeeds(r.nodes)
	if err != nil {
		return 0, err
	}
	if !s.awaitShard(f, sh, r.enq) {
		return 0, fmt.Errorf("%w: shard %d owning node %d is offline", ErrShardUnavailable, sh, r.nodes[0])
	}
	return sh, nil
}

// requestContext derives the context a request enqueued at enq runs under:
// base — a fleet's outage context, or the background — bounded by the
// request's remaining Config.Deadline, or an error when the request already
// overstayed it in the queue. Without a configured deadline base comes back
// with a no-op cancel.
func (s *MultiServer) requestContext(base context.Context, enq time.Time) (context.Context, context.CancelFunc, error) {
	if s.cfg.Deadline <= 0 {
		return base, func() {}, nil
	}
	remaining := s.cfg.Deadline - time.Since(enq)
	if remaining <= 0 {
		return nil, nil, fmt.Errorf("serve: request exceeded its %v deadline in queue: %w", s.cfg.Deadline, context.DeadlineExceeded)
	}
	ctx, cancel := context.WithTimeout(base, remaining)
	return ctx, cancel, nil
}

// runFull answers one full-graph request on w's workspace: one label per
// row, the logits too when r asks for scores, the modelled spill traffic
// of the pass, and whether it reused the public-half store instead of
// running the backbone. On a fleet the whole fleet must be up — a degraded
// fleet fails fast so clients retry after recovery — and the pass is
// timed into the fan-out histogram, its halo traffic accumulated per shard
// and its outcome fed to the breakers. The views it returns stay valid
// until w's next run, so serveFull copies answers out before the workspace
// is reused.
func (s *MultiServer) runFull(w int, r *request) (labels []int, logits *mat.Matrix, spill int64, reused bool, err error) {
	h := &s.leases[w]
	base := context.Background()
	if h.f != nil {
		// The context before the check: a shard taken offline after the
		// load cancels the context this pass holds.
		base = h.f.outage.Load().ctx
		if off := h.f.offlineShard(); off >= 0 {
			return nil, nil, 0, false, fmt.Errorf("%w: shard %d is offline and full-graph inference needs the whole fleet", ErrShardUnavailable, off)
		}
	}
	ctx, cancel, err := s.requestContext(base, r.enq)
	if err != nil {
		return nil, nil, 0, false, err
	}
	start := time.Now()
	labels, logits, bd, err := h.ws.PredictContext(ctx, r.x, r.scores != nil)
	cancel()
	if h.f != nil {
		h.f.fanout.Observe(time.Since(start).Nanoseconds())
		s.noteFullGraph(h.f, err)
		if err == nil {
			for sh := range h.f.halo {
				h.f.halo[sh].Add(h.ws.ShardHaloBytes(sh))
			}
		}
	}
	return labels, logits, h.ws.SpillBytes(), bd.BackboneReused, err
}

// runUnion answers one coalesced extraction on w's subgraph workspace,
// deadline-bounded by the chunk's oldest member (requests are packed in
// arrival order, so that is the first): a label (and, with scores, a
// logits row) per union entry. On a fleet the cross-shard rows the
// extraction touched are accumulated as the shard's halo traffic, the
// outcome is fed to its breaker, and queries answered while another shard
// is down count as degraded serving.
func (s *MultiServer) runUnion(w int, union []int, scores bool, chunk []*request) ([]int, *mat.Matrix, error) {
	h := &s.leases[w]
	// One shard's ECALL and no barrier: a fleet's outage does not abort it.
	ctx, cancel, err := s.requestContext(context.Background(), chunk[0].enq)
	if err != nil {
		return nil, nil, err
	}
	defer cancel()
	if h.f == nil {
		labels, logits, _, err := h.v.PredictNodesIntoContext(ctx, h.x, union, h.sub, scores)
		return labels, logits, err
	}
	labels, logits, halo, _, err := h.f.sv.PredictNodesAtContext(ctx, h.x, union, h.part, h.sub, scores)
	if err != nil {
		s.noteShardError(h.f, h.part, err)
		return nil, nil, err
	}
	s.noteShardSuccess(h.f, h.part)
	h.f.halo[h.part].Add(halo)
	if h.f.offlineShard() >= 0 {
		s.degraded.Add(uint64(len(chunk)))
	}
	return labels, logits, nil
}

// Predict enqueues one inference over x for the vault registered under
// vaultID and blocks until a worker answers. The returned slice is freshly
// allocated and owned by the caller. Safe for concurrent use; blocks for
// backpressure when the queue is full. Unknown vault IDs surface as
// registry.ErrUnknownVault. A fleet's labels are bit-identical to a single
// enclave's; while any of its shards is offline the query fails with
// ErrShardUnavailable.
func (s *MultiServer) Predict(vaultID string, x *mat.Matrix) ([]int, error) {
	_, labels, err := s.submit(vaultID, x, nil, false, false)
	return labels, err
}

// PredictNodes enqueues one node-level query for the vault registered
// under vaultID and blocks until a worker answers with one label per
// requested node. The registry must be configured for node queries and
// the vault enabled via registry.EnableNodeQueries; otherwise the request
// fails with ErrNodeQueriesDisabled. A query whose distinct seeds exceed
// the registry's NodeQuery.MaxSeeds fails with subgraph.ErrTooManySeeds,
// and one naming a node outside the graph with core.ErrNodeOutOfRange.
// On a fleet the query routes to the shard owning its first seed; an
// offline owner fails it with ErrShardUnavailable after up to
// Config.MaxRetries jittered backoff waits for the shard to recover.
// Consecutive same-vault node queries drained in one worker wake-up are
// coalesced into shared subgraph extractions. nodes must not be mutated
// until PredictNodes returns; the returned slice is freshly allocated and
// owned by the caller.
func (s *MultiServer) PredictNodes(vaultID string, nodes []int) ([]int, error) {
	_, labels, err := s.submit(vaultID, nil, nodes, true, false)
	return labels, err
}
