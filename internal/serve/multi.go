package serve

import (
	"runtime"

	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
)

// MultiServer routes label queries across a fleet of vaults sharing one
// enclave: the scheduler over a registry.Registry. Workers pull requests
// off a single bounded queue and check a workspace out of the registry for
// each run of consecutive same-vault requests in a drained batch — so a
// burst of same-vault traffic pays the registry exactly once — and which
// vaults hold EPC at any moment follows the traffic: hot vaults keep
// cached workspaces (and stay on the allocation-free path), cold vaults
// pay a plan — and possibly evict an idle tenant — on their next request.
// That churn (plans, evictions, per-vault residency) is in the registry's
// own Stats; Stats here is the queue-to-answer accounting.
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
	*scheduler
	leases
	reg *registry.Registry
}

// NewMulti starts a worker pool over the registry's vault fleet. Unlike
// New, nothing is planned up front: workspace residency is entirely
// demand-driven, so a fleet larger than the EPC starts instantly and pages
// vaults in as traffic arrives. The caller keeps ownership of the
// registry; Close stops the workers without closing it.
func NewMulti(reg *registry.Registry, cfg Config) *MultiServer {
	cfg = cfg.withDefaults()
	s := &MultiServer{scheduler: newScheduler(cfg, true), leases: make(leases, cfg.Workers), reg: reg}
	s.run(s)
	return s
}

// checkout fills worker w's lease from the registry: Acquire for a run's
// full-graph requests, AcquireSubgraph — which also hands back the vault's
// registered features — for its node queries.
func (s *MultiServer) checkout(w int, id string, node bool) (nodes, maxSeeds int, err error) {
	h := &s.leases[w]
	h.id = id
	if !node {
		h.v, h.ws, err = s.reg.Acquire(id)
		runtime.Gosched() // lease held: see the type's comment
		return 0, 0, err
	}
	if h.v, h.sub, h.x, err = s.reg.AcquireSubgraph(id); err != nil {
		return 0, 0, err
	}
	return h.v.Nodes(), h.sub.MaxSeeds(), nil
}

func (s *MultiServer) release(w int, node bool) {
	h := &s.leases[w]
	if node {
		s.reg.ReleaseSubgraph(h.id, h.sub)
	} else {
		s.reg.Release(h.id, h.ws)
	}
}

// teardown has nothing to return: every checkout was released with its
// run, and the registry is the caller's.
func (s *MultiServer) teardown() {}

// Predict enqueues one inference over x for the vault registered under
// vaultID and blocks until a worker answers. The returned slice is freshly
// allocated and owned by the caller. Safe for concurrent use; blocks for
// backpressure when the queue is full. Unknown vault IDs surface as
// registry.ErrUnknownVault.
func (s *MultiServer) Predict(vaultID string, x *mat.Matrix) ([]int, error) {
	_, labels, err := s.submit(vaultID, x, nil, false, false)
	return labels, err
}

// PredictScores is Predict answering with the defended per-class posterior
// row and label for every input row. Fails with ErrScoresDisabled unless
// the server was started with Config.ExposeScores.
func (s *MultiServer) PredictScores(vaultID string, x *mat.Matrix) ([][]float64, []int, error) {
	return s.submit(vaultID, x, nil, false, true)
}

// PredictNodes enqueues one node-level query for the vault registered
// under vaultID and blocks until a worker answers with one label per
// requested node. The registry must be configured for node queries and
// the vault enabled via registry.EnableNodeQueries; otherwise the request
// fails with registry.ErrNodeQueriesDisabled. Consecutive same-vault node
// queries drained in one worker wake-up are coalesced into shared
// subgraph extractions. nodes must not be mutated until PredictNodes
// returns; the returned slice is freshly allocated and owned by the
// caller.
func (s *MultiServer) PredictNodes(vaultID string, nodes []int) ([]int, error) {
	_, labels, err := s.submit(vaultID, nil, nodes, true, false)
	return labels, err
}

// PredictNodesScores is PredictNodes for fleets exposing scores: one
// defended posterior row and label per requested node, served through the
// same coalesced subgraph extractions.
func (s *MultiServer) PredictNodesScores(vaultID string, nodes []int) ([][]float64, []int, error) {
	return s.submit(vaultID, nil, nodes, true, true)
}

// Close stops accepting requests and waits for queued work to finish.
// Workspace EPC is returned to the registry as each in-flight checkout is
// released; the registry itself (and the deployed vaults) remain usable.
// Idempotent.
func (s *MultiServer) Close() { s.shutdown() }
