// Package registry schedules many deployed vaults onto one enclave's
// scarce EPC: the multi-tenant edge device hosting several GNNVault
// deployments (datasets × rectifier designs) behind a single trusted
// compartment.
//
// Every vault charges the EPC twice: once at deploy time for its persistent
// residents (rectifier parameters + private adjacency, held until
// core.Vault.Undeploy), and once per planned inference workspace
// (core.Vault.Plan). The Registry manages the second, elastic, part:
// workspaces are planned lazily on the first request for a vault, cached on
// a per-vault free list while the vault is hot, and evicted — least
// recently served first — when admitting another vault's workspace would
// exceed the EPC. Plan and eviction counts are recorded per vault so the
// memory/latency trade is visible in Stats: a fleet that fits the EPC
// serves every request from cached workspaces at zero allocation, while an
// oversubscribed fleet pays a measured re-plan cost on every cold vault.
//
// Acquire blocks while the EPC is full but other requests still hold
// workspaces, and fails only when no admission order could ever fit the
// request. See DESIGN.md ("Multi-vault registry and EPC scheduling") for
// the eviction policy and the accounting invariants the tests enforce.
//
// A shard fleet (core.ShardedVault, RegisterFleet) is one more entry: its
// full-graph workspaces span every shard enclave and its node-query pool is
// kept per part, each part's workspaces planned against that shard's vault.
// A fleet plans into its own enclaves, so it never evicts, and is never
// evicted for, the vaults of the registry's enclave; only its own
// checkouts can make room for it. A part whose enclave
// was lost is recovered through the same free lists (RecoverPart): drain,
// re-provision, drop the stale cache, plan afresh on the next Acquire.
package registry

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/subgraph"
)

// ErrClosed is returned by Acquire after Close.
var ErrClosed = errors.New("registry: closed")

// ErrUnknownVault is returned by Acquire for an unregistered vault ID.
var ErrUnknownVault = errors.New("registry: unknown vault")

// ErrNodeQueriesDisabled is returned by AcquireSubgraph when the registry
// has no NodeQuery configuration or the vault never called
// EnableNodeQueries (no feature matrix to gather from).
var ErrNodeQueriesDisabled = errors.New("registry: node queries not enabled")

// NodeQueryRangeError refuses a NodeQueryConfig field below zero — which
// WithDefaults would otherwise have to reinterpret — naming the field.
// EnableNodeQueries and RegisterFleet return it.
type NodeQueryRangeError struct {
	Field string
	Value int
}

// Error names the field and its value.
func (e *NodeQueryRangeError) Error() string {
	return fmt.Sprintf("registry: negative NodeQueryConfig.%s %d", e.Field, e.Value)
}

// NodeQueryConfig fixes the subgraph sampling geometry for the
// registry's node-level serving path. Subgraph workspaces are planned
// (and evicted) by the same scheduler as full-graph workspaces, but their
// EPC charge is bounded by hops × fanout × seeds instead of the graph
// size — a vault whose full-graph plan can never be admitted may still
// serve node queries.
type NodeQueryConfig struct {
	// Hops is the neighborhood expansion depth L; 0 means the default, 2.
	Hops int
	// Fanout caps sampled neighbours per node per hop; 0 means unlimited
	// (exact L-hop, worst-case O(graph)).
	Fanout int
	// MaxSeeds bounds the seed nodes one coalesced extraction serves; 0
	// means the default, 16.
	MaxSeeds int
	// Seed drives the deterministic sampler.
	Seed uint64
}

// WithDefaults returns the config with its zero Hops and MaxSeeds replaced
// by the documented defaults (hops 2, 16 seeds); a zero Fanout stays
// unlimited. Negative fields are left as they are, for check to refuse.
func (c NodeQueryConfig) WithDefaults() NodeQueryConfig {
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.MaxSeeds == 0 {
		c.MaxSeeds = 16
	}
	return c
}

// check refuses a negative field with a *NodeQueryRangeError.
func (c NodeQueryConfig) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Hops", c.Hops}, {"Fanout", c.Fanout}, {"MaxSeeds", c.MaxSeeds}} {
		if f.v < 0 {
			return &NodeQueryRangeError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// Subgraph returns the sampling geometry as a subgraph.Config.
func (c NodeQueryConfig) Subgraph() subgraph.Config {
	return subgraph.Config{Hops: c.Hops, Fanout: c.Fanout, Seed: c.Seed}
}

// Config tunes the scheduler.
type Config struct {
	// WorkspacesPerVault caps how many concurrent inference workspaces one
	// vault may hold (its maximum worker parallelism). Default 2, matching
	// serve.Config's worker default; a negative value is programmer error
	// and New panics on it. Full-graph and subgraph workspaces are capped
	// independently.
	WorkspacesPerVault int
	// Plan shapes every full-graph workspace the registry plans. Setting
	// Plan.EPCBudgetBytes makes cold plans tile-streamed: a vault whose
	// untiled plan could never be admitted (or whose admission would evict
	// the whole fleet) is charged only a tile-sized working set, which
	// collapses the plan/evict churn an oversubscribed EPC otherwise pays
	// (every conv kind tiles). Setting Plan.Precision shrinks every
	// planned workspace by the element width; vaults serving int8 must
	// have calibration features registered
	// (core.Vault.SetCalibrationFeatures) before their first request, or
	// admission fails with core.ErrCalibrationRequired — an accuracy
	// refusal, deliberately not an EPC error, so it never triggers
	// evictions.
	Plan core.PlanConfig
	// NodeQuery, when non-nil, lets vaults with EnableNodeQueries serve
	// node-level requests through AcquireSubgraph.
	NodeQuery *NodeQueryConfig
	// Recorder receives the scheduler's flight-recorder events: one
	// SpanPlan per cold-start workspace plan and one SpanEvict per LRU
	// eviction. When Plan.Recorder is unset it also propagates to every
	// planned workspace, so one recorder wires the whole stack. Nil means
	// obs.Nop.
	Recorder obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.WorkspacesPerVault < 0 {
		panic(fmt.Sprintf("registry: negative Config.WorkspacesPerVault (%d)", c.WorkspacesPerVault))
	}
	if c.WorkspacesPerVault == 0 {
		c.WorkspacesPerVault = 2
	}
	if c.NodeQuery != nil {
		nq := c.NodeQuery.WithDefaults()
		c.NodeQuery = &nq
	}
	if c.Recorder == nil {
		c.Recorder = obs.Nop
	}
	if c.Plan.Recorder == nil {
		c.Plan.Recorder = c.Recorder
	}
	return c
}

// entry is one registered vault's — or shard fleet's — residency state.
type entry struct {
	id    string
	vault *core.Vault        // a vault entry's vault; nil for a fleet
	fleet *core.ShardedVault // a fleet entry's fleet; nil for a vault

	free  []*core.Workspace // planned, idle workspaces (cap fixed at Register)
	inUse int               // workspaces currently checked out via Acquire

	// Node-query pools, the subgraph-plan mirror of free/inUse: one per
	// part — a vault has one, a fleet one per shard — populated only after
	// EnableNodeQueries. x is the public feature matrix, handed out with
	// every subgraph checkout.
	x           *mat.Matrix
	parts       []part
	nodeQueries uint64

	// recovering counts the parts RecoverPart is re-provisioning; the
	// full-graph pool, whose workspaces span every part, is closed to
	// checkouts while it is non-zero.
	recovering int

	// wsBytes and subBytes are the EPC the vault's last admitted workspace
	// of each pool charged (0 before the first): what the next plan of
	// that pool will ask the enclave for, so admission can make the room
	// before building anything.
	wsBytes, subBytes int64

	// A fleet's enclaves get EPC back only when the registry releases the
	// entry's cached workspaces, which — a fleet is never evicted — only
	// RecoverPart does while it is registered; recoveries counts those.
	// refused is recoveries+1 when the full-graph pool's last plan was
	// refused for EPC (0 otherwise): until the count moves, the same plan
	// would be built and refused again.
	recoveries, refused uint64

	lastServed uint64 // registry clock at the vault's last acquire/release
	requests   uint64
	plans      uint64
	evictions  uint64
}

// part is one part's node-query pool.
type part struct {
	free       []*core.SubgraphWorkspace // planned, idle subgraph workspaces
	inUse      int                       // checked out via AcquireSubgraphPart
	recovering bool                      // RecoverPart holds the pool closed
	refused    uint64                    // entry.refused for this pool
}

// nodes returns the entry's deployed graph size.
func (e *entry) nodes() int {
	if e.fleet != nil {
		return e.fleet.Nodes()
	}
	return e.vault.Nodes()
}

// partVault returns part p's current vault: a shard's, or the vault itself.
func (e *entry) partVault(p int) *core.Vault {
	if e.fleet != nil {
		return e.fleet.Shard(p)
	}
	return e.vault
}

// subCounts returns the node-query workspaces checked out and cached,
// summed over parts.
func (e *entry) subCounts() (inUse, cached int) {
	for i := range e.parts {
		inUse += e.parts[i].inUse
		cached += len(e.parts[i].free)
	}
	return inUse, cached
}

// resident reports whether the vault holds any workspace EPC (of either
// kind).
func (e *entry) resident() bool {
	inUse, cached := e.subCounts()
	return e.inUse > 0 || len(e.free) > 0 || inUse > 0 || cached > 0
}

// idle reports whether the vault holds cached EPC with nothing checked
// out — the eviction candidates.
func (e *entry) idle() bool {
	inUse, cached := e.subCounts()
	return e.inUse == 0 && inUse == 0 && (len(e.free) > 0 || cached > 0)
}

// Registry schedules per-vault inference workspaces for a fleet of vaults
// deployed into one shared enclave. All methods are safe for concurrent
// use.
type Registry struct {
	encl *enclave.Enclave
	cfg  Config

	mu     sync.Mutex
	cond   *sync.Cond
	vaults map[string]*entry
	clock  uint64 // logical last-served time, bumped on every acquire/release
	inUse  int    // workspaces checked out across all vaults
	closed bool

	// fleets maps each fleet entry's ID to its fleet. It is copied on
	// every change, so Fleet — on the serving path of every node query —
	// reads it without the mutex.
	fleets atomic.Pointer[map[string]*core.ShardedVault]

	plans     uint64
	evictions uint64
	requests  uint64
}

// New creates an empty registry over the shared enclave. The enclave is
// typically created with enclave.New over every hosted rectifier's
// Identity, then populated via core.DeployInto and Register. A registry
// that only holds shard fleets, which bring their own enclaves, may be
// created over a nil enclave.
func New(encl *enclave.Enclave, cfg Config) *Registry {
	r := &Registry{
		encl:   encl,
		cfg:    cfg.withDefaults(),
		vaults: map[string]*entry{},
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Register adds a deployed vault under id. The vault must be deployed into
// the registry's enclave (core.DeployInto) so its EPC accounting lands in
// the shared ledger.
func (r *Registry) Register(id string, v *core.Vault) error {
	if v.Enclave != r.encl {
		return fmt.Errorf("registry: vault %q deployed into a different enclave", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(&entry{id: id, vault: v, parts: make([]part, 1)})
}

// RegisterFleet adds a deployed shard fleet under id, as one entry: its
// full-graph workspaces come from core.ShardedVault.PlanSharded, charged
// on every shard enclave, and its node-query pool is kept per shard
// (AcquireSubgraphPart). Fails with a *NodeQueryRangeError when the
// registry's NodeQuery config has a negative field.
func (r *Registry) RegisterFleet(id string, sv *core.ShardedVault) error {
	if nq := r.cfg.NodeQuery; nq != nil {
		if err := nq.check(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(&entry{id: id, fleet: sv, parts: make([]part, sv.Shards())})
}

// addLocked registers e under its ID.
func (r *Registry) addLocked(e *entry) error {
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.vaults[e.id]; dup {
		return fmt.Errorf("registry: vault %q already registered", e.id)
	}
	// Fixed capacity so the hot-path Release append never allocates.
	e.free = make([]*core.Workspace, 0, r.cfg.WorkspacesPerVault)
	r.vaults[e.id] = e
	if e.fleet != nil {
		r.publishFleetLocked(e.id, e.fleet)
	}
	return nil
}

// publishFleetLocked replaces the fleets map with a copy mapping id to sv.
func (r *Registry) publishFleetLocked(id string, sv *core.ShardedVault) {
	m := map[string]*core.ShardedVault{}
	if old := r.fleets.Load(); old != nil {
		maps.Copy(m, *old)
	}
	m[id] = sv
	r.fleets.Store(&m)
}

// Vault returns the registered vault for id, or nil (also for a fleet).
func (r *Registry) Vault(id string) *core.Vault {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.vaults[id]; ok {
		return e.vault
	}
	return nil
}

// Fleet returns the shard fleet registered under id, or nil. It takes no
// lock.
func (r *Registry) Fleet(id string) *core.ShardedVault {
	if m := r.fleets.Load(); m != nil {
		return (*m)[id]
	}
	return nil
}

// EnableNodeQueries registers the vault's (or fleet's) public feature
// matrix and opens the node-level serving path for it: subsequent
// AcquireSubgraph calls may plan subgraph workspaces against the
// registry's NodeQuery geometry. The registry itself must have been
// created with Config.NodeQuery set, without a negative field (else a
// *NodeQueryRangeError).
func (r *Registry) EnableNodeQueries(id string, x *mat.Matrix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.cfg.NodeQuery == nil {
		return fmt.Errorf("%w: registry has no NodeQuery config", ErrNodeQueriesDisabled)
	}
	if err := r.cfg.NodeQuery.check(); err != nil {
		return err
	}
	e, ok := r.vaults[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVault, id)
	}
	if x == nil || x.Rows != e.nodes() {
		return fmt.Errorf("registry: vault %q features must cover %d nodes", id, e.nodes())
	}
	e.x = x
	for i := range e.parts {
		if e.parts[i].free == nil {
			e.parts[i].free = make([]*core.SubgraphWorkspace, 0, r.cfg.WorkspacesPerVault)
		}
	}
	return nil
}

// Acquire checks out one inference workspace for the vault registered
// under id, planning it lazily on first use. When the vault is hot (a
// cached workspace is free) Acquire is a map lookup and a slice pop —
// no allocation, no enclave traffic. When it is cold, Acquire plans a new
// workspace, evicting idle vaults in least-recently-served order until the
// plan fits the EPC; the plan and each eviction are counted in Stats.
//
// If the vault is at its workspace cap, or the EPC cannot admit the plan
// while other requests hold workspaces, Acquire blocks until a Release or
// Remove changes the picture. It fails with enclave.ErrEPCExhausted
// (wrapped) only when nothing is checked out anywhere — for a fleet,
// nothing of its own — and no eviction could make the plan fit: the
// request is simply too big for the device.
//
// A fleet entry's workspace comes back with a nil vault: it is served
// through core.Workspace.PredictContext. While RecoverPart is recovering
// one of a fleet's parts, Acquire for that fleet waits for it.
//
// Every successful Acquire must be paired with Release.
func (r *Registry) Acquire(id string) (*core.Vault, *core.Workspace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, nil, ErrClosed
		}
		e, ok := r.vaults[id]
		if !ok {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownVault, id)
		}
		if e.recovering > 0 {
			r.cond.Wait()
			continue
		}
		if n := len(e.free); n > 0 {
			ws := e.free[n-1]
			e.free = e.free[:n-1]
			r.checkoutLocked(e)
			return e.vault, ws, nil
		}
		if e.inUse < r.cfg.WorkspacesPerVault {
			ws, err := r.planLocked(e)
			if err == nil {
				r.checkoutLocked(e)
				return e.vault, ws, nil
			}
			if !errors.Is(err, enclave.ErrEPCExhausted) {
				return nil, nil, err
			}
			if r.holdersLocked(e) == 0 {
				// Nothing left to wait for: every workspace is evicted and
				// the plan still does not fit.
				return nil, nil, fmt.Errorf("registry: vault %q cannot be admitted: %w", id, err)
			}
		}
		// Either the vault is at its workspace cap or the EPC is full of
		// in-flight workspaces; wait for a Release/Remove and retry.
		r.cond.Wait()
	}
}

// AcquireSubgraph checks out one node-query (subgraph) workspace for the
// vault registered under id, along with the vault and its public feature
// matrix. It follows Acquire's contract — cached-hot checkouts are
// allocation-free, cold ones plan lazily and evict idle vaults LRU-first,
// saturation blocks until a release — but the planned working set is the
// capped hops×fanout geometry of Config.NodeQuery, typically orders of
// magnitude below the full-graph plan. A vault too big for Acquire can
// therefore still be admitted here; see the DESIGN.md accounting section.
//
// AcquireSubgraph fails with ErrNodeQueriesDisabled unless the registry
// has a NodeQuery config and the vault called EnableNodeQueries. Every
// successful call must be paired with ReleaseSubgraph.
func (r *Registry) AcquireSubgraph(id string) (*core.Vault, *core.SubgraphWorkspace, *mat.Matrix, error) {
	return r.AcquireSubgraphPart(id, 0)
}

// AcquireSubgraphPart is AcquireSubgraph from part p's pool: for a fleet,
// a workspace planned against shard p's vault, which comes back with it;
// a vault has only part 0. While RecoverPart is recovering part p it
// waits. Every successful call must be paired with ReleaseSubgraphPart.
func (r *Registry) AcquireSubgraphPart(id string, p int) (*core.Vault, *core.SubgraphWorkspace, *mat.Matrix, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, nil, nil, ErrClosed
		}
		e, ok := r.vaults[id]
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownVault, id)
		}
		if r.cfg.NodeQuery == nil || e.x == nil {
			return nil, nil, nil, fmt.Errorf("%w: vault %q", ErrNodeQueriesDisabled, id)
		}
		if p < 0 || p >= len(e.parts) {
			return nil, nil, nil, fmt.Errorf("registry: vault %q has no part %d", id, p)
		}
		pt := &e.parts[p]
		if pt.recovering {
			r.cond.Wait()
			continue
		}
		if n := len(pt.free); n > 0 {
			ws := pt.free[n-1]
			pt.free = pt.free[:n-1]
			r.checkoutSubLocked(e, pt)
			return e.partVault(p), ws, e.x, nil
		}
		if pt.inUse < r.cfg.WorkspacesPerVault {
			ws, err := r.planSubLocked(e, p)
			if err == nil {
				r.checkoutSubLocked(e, pt)
				return e.partVault(p), ws, e.x, nil
			}
			if !errors.Is(err, enclave.ErrEPCExhausted) {
				return nil, nil, nil, err
			}
			if r.holdersLocked(e) == 0 {
				return nil, nil, nil, fmt.Errorf("registry: vault %q node-query plan cannot be admitted: %w", id, err)
			}
		}
		r.cond.Wait()
	}
}

// holdersLocked counts the checkouts whose release could make room for a
// plan of e: every checkout for a vault, and for a fleet, whose enclaves
// no other entry shares, only its own.
func (r *Registry) holdersLocked(e *entry) int {
	if e.fleet == nil {
		return r.inUse
	}
	inUse, _ := e.subCounts()
	return e.inUse + inUse
}

// Warm plans workspaces into the free lists of the entry registered under
// id until each of its pools — the full-graph pool, and every part's
// node-query pool once EnableNodeQueries ran — holds n (at most
// WorkspacesPerVault), so the first requests are served hot. Unlike
// Acquire it never waits for a release: a plan the EPC cannot admit fails
// Warm with enclave.ErrEPCExhausted (wrapped), and the workspaces planned
// before it stay cached.
func (r *Registry) Warm(id string, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.cond.Broadcast() // waiters may take what was planned
	e, ok := r.vaults[id]
	switch {
	case r.closed:
		return ErrClosed
	case !ok:
		return fmt.Errorf("%w: %q", ErrUnknownVault, id)
	case e.recovering > 0:
		return fmt.Errorf("registry: %q is recovering a part", id)
	}
	n = min(n, r.cfg.WorkspacesPerVault)
	for i := e.inUse + len(e.free); i < n; i++ {
		ws, err := r.planLocked(e)
		if err != nil {
			return fmt.Errorf("registry: warming %q: full-graph workspace %d/%d: %w", id, i+1, n, err)
		}
		e.free = append(e.free, ws)
	}
	for p := range e.parts {
		pt := &e.parts[p]
		for i := pt.inUse + len(pt.free); e.x != nil && i < n; i++ {
			ws, err := r.planSubLocked(e, p)
			if err != nil {
				return fmt.Errorf("registry: warming %q: part %d node-query workspace %d/%d: %w", id, p, i+1, n, err)
			}
			pt.free = append(pt.free, ws)
		}
	}
	return nil
}

// checkoutLocked records one workspace handed to a caller.
func (r *Registry) checkoutLocked(e *entry) {
	e.inUse++
	r.inUse++
	e.requests++
	r.requests++
	r.clock++
	e.lastServed = r.clock
}

// checkoutSubLocked records one subgraph workspace of pt handed to a caller.
func (r *Registry) checkoutSubLocked(e *entry, pt *part) {
	pt.inUse++
	r.inUse++
	e.requests++
	e.nodeQueries++
	r.requests++
	r.clock++
	e.lastServed = r.clock
}

// planLocked plans one full-graph workspace for e, evicting idle vaults
// LRU-first while the enclave reports EPC exhaustion. Planning happens
// under the registry lock: admission is a critical section, so two cold
// requests cannot both out-evict each other.
func (r *Registry) planLocked(e *entry) (*core.Workspace, error) {
	var ws *core.Workspace
	err := r.admitLocked(e, &e.wsBytes, &e.refused, func() (int64, error) {
		var err error
		if e.fleet != nil {
			ws, err = e.fleet.PlanSharded(e.fleet.Nodes(), r.cfg.Plan)
		} else {
			ws, err = e.vault.PlanWith(e.vault.Nodes(), r.cfg.Plan)
		}
		if err != nil {
			return 0, err
		}
		return ws.EnclaveBytes(), nil
	})
	return ws, err
}

// planSubLocked is planLocked for part p's node-query pool.
func (r *Registry) planSubLocked(e *entry, p int) (*core.SubgraphWorkspace, error) {
	nq := r.cfg.NodeQuery
	var ws *core.SubgraphWorkspace
	err := r.admitLocked(e, &e.subBytes, &e.parts[p].refused, func() (int64, error) {
		var err error
		if ws, err = e.partVault(p).PlanSubgraphWith(nq.MaxSeeds, nq.Subgraph(), r.cfg.Plan); err != nil {
			return 0, err
		}
		return ws.EnclaveBytes(), nil
	})
	return ws, err
}

// admitLocked admits one workspace of e: plan (which reports the EPC it
// charged) is attempted, and idle vaults are evicted LRU-first for as
// long as the enclave reports EPC exhaustion and victims remain. A plan
// compiles both programs and allocates both machines before the enclave
// can refuse it, so where *known — the size the vault's last workspace of
// this pool was admitted at — says the attempt cannot fit, the same
// victims go, in the same order, before it instead of after a discarded
// build — and where it still cannot fit once every idle victim is gone
// and workspaces are checked out, nothing is built at all: the caller
// waits for a release either way, and the build it would discard is the
// expensive part. With nothing checked out the attempt is made whatever
// *known says, so the first plan, a size that shrank and the "cannot be
// admitted" error all still come from the enclave. The retry loop covers
// the first plan and a size that grew. A fleet plans into its own
// enclaves, which no victim shares: the plan alone admits or refuses it,
// and once refused (*refused, see entry) it is not built again while the
// fleet's own checkouts are out and no recovery has freed its EPC — the
// caller waits for one of those checkouts instead.
func (r *Registry) admitLocked(e *entry, known *int64, refused *uint64, plan func() (int64, error)) error {
	if e.fleet != nil && *refused == e.recoveries+1 && r.holdersLocked(e) > 0 {
		return fmt.Errorf("registry: fleet %q: its enclaves refused this plan and nothing has freed their EPC since: %w", e.id, enclave.ErrEPCExhausted)
	}
	for e.fleet == nil && *known > 0 && r.encl.EPCFree() < *known {
		victim := r.lruIdleLocked(e)
		if victim == nil {
			if r.inUse > 0 {
				return fmt.Errorf("registry: %d-byte workspace, %d bytes free, no idle vault left to evict: %w", *known, r.encl.EPCFree(), enclave.ErrEPCExhausted)
			}
			break
		}
		r.evictLocked(victim)
	}
	rec := r.cfg.Recorder
	for {
		var t0 int64
		if rec.Enabled() {
			t0 = rec.Clock()
		}
		bytes, err := plan()
		if err == nil {
			*known, *refused = bytes, 0
			e.plans++
			r.plans++
			if rec.Enabled() {
				rec.Record(obs.Span{Kind: obs.SpanPlan, Start: t0, Dur: rec.Clock() - t0})
			}
			return nil
		}
		if !errors.Is(err, enclave.ErrEPCExhausted) {
			return err
		}
		victim := r.lruIdleLocked(e)
		if victim == nil {
			*refused = e.recoveries + 1
			return err
		}
		r.evictLocked(victim)
	}
}

// lruIdleLocked returns the least-recently-served vault that holds
// workspace EPC but has none checked out (evicting a busy vault would pull
// buffers out from under a running inference), or nil. The requesting
// vault's own cache is never a victim, and fleets — whose EPC is their own
// enclaves' — are neither victims nor evict any.
func (r *Registry) lruIdleLocked(requester *entry) *entry {
	if requester.fleet != nil {
		return nil
	}
	var victim *entry
	for _, e := range r.vaults {
		if e == requester || e.fleet != nil || !e.idle() {
			continue
		}
		if victim == nil || e.lastServed < victim.lastServed {
			victim = e
		}
	}
	return victim
}

// evictLocked releases every cached workspace of e (both pools) to make
// room for another vault, counting each as an eviction.
func (r *Registry) evictLocked(e *entry) {
	_, cached := e.subCounts()
	n := uint64(len(e.free) + cached)
	if rec := r.cfg.Recorder; rec.Enabled() {
		var bytes int64
		for _, ws := range e.free {
			bytes += ws.EnclaveBytes()
		}
		for _, ws := range e.parts[0].free { // a vault's only part
			bytes += ws.EnclaveBytes()
		}
		rec.Record(obs.Span{Kind: obs.SpanEvict, Rows: int32(n), Bytes: bytes, Start: rec.Clock()})
	}
	r.releaseAllLocked(e)
	e.evictions += n
	r.evictions += n
}

// releaseAllLocked returns e's cached workspace EPC (both pools) to the
// enclave without touching the eviction counters — for administrative
// paths (Remove, Close) that are not EPC pressure.
func (r *Registry) releaseAllLocked(e *entry) {
	releaseFull(e)
	for p := range e.parts {
		releasePart(&e.parts[p])
	}
}

// releaseFull returns e's cached full-graph workspaces' EPC.
func releaseFull(e *entry) {
	for _, ws := range e.free {
		ws.Release()
	}
	e.free = e.free[:0]
}

// releasePart returns pt's cached subgraph workspaces' EPC.
func releasePart(pt *part) {
	for _, ws := range pt.free {
		ws.Release()
	}
	pt.free = pt.free[:0]
}

// Release returns a workspace checked out by Acquire to the vault's free
// list and refreshes the vault's last-served time. Never allocates.
func (r *Registry) Release(id string, ws *core.Workspace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.vaults[id]
	if !ok || e.inUse <= 0 {
		panic(fmt.Sprintf("registry: release of %q without matching acquire", id))
	}
	e.inUse--
	r.inUse--
	r.clock++
	e.lastServed = r.clock
	if r.closed {
		// Close already ran; late releases free their EPC immediately.
		ws.Release()
		r.cond.Broadcast()
		return
	}
	e.free = append(e.free, ws)
	r.cond.Broadcast()
}

// ReleaseSubgraph returns a workspace checked out by AcquireSubgraph to
// the vault's node-query free list and refreshes its last-served time.
// Never allocates.
func (r *Registry) ReleaseSubgraph(id string, ws *core.SubgraphWorkspace) {
	r.ReleaseSubgraphPart(id, 0, ws)
}

// ReleaseSubgraphPart returns a workspace checked out by
// AcquireSubgraphPart to part p's free list. Never allocates.
func (r *Registry) ReleaseSubgraphPart(id string, p int, ws *core.SubgraphWorkspace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.vaults[id]
	if !ok || p < 0 || p >= len(e.parts) || e.parts[p].inUse <= 0 {
		panic(fmt.Sprintf("registry: subgraph release of %q part %d without matching acquire", id, p))
	}
	pt := &e.parts[p]
	pt.inUse--
	r.inUse--
	r.clock++
	e.lastServed = r.clock
	if r.closed {
		// Close already ran; late releases free their EPC immediately.
		ws.Release()
		r.cond.Broadcast()
		return
	}
	pt.free = append(pt.free, ws)
	r.cond.Broadcast()
}

// RecoverPart brings part p of the fleet registered under id back after
// its enclave was lost, as the registry's own eviction: it closes the
// fleet's full-graph pool and part p's node-query pool to checkouts, waits
// until every checkout of them has been released, re-provisions the part
// (core.ShardedVault.RecoverShard), then releases what the entry cached of
// those pools — without counting evictions, since recovery is not EPC
// pressure — so the next Acquire plans afresh against the recovered
// fleet. The other parts' node queries keep being served throughout. On an
// error the part stays dead and the call can be retried.
func (r *Registry) RecoverPart(id string, p int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.vaults[id]
	switch {
	case !ok:
		return fmt.Errorf("%w: %q", ErrUnknownVault, id)
	case e.fleet == nil:
		return fmt.Errorf("registry: %q is not a fleet", id)
	case p < 0 || p >= len(e.parts):
		return fmt.Errorf("registry: fleet %q has no part %d", id, p)
	case e.parts[p].recovering:
		return fmt.Errorf("registry: fleet %q part %d is already recovering", id, p)
	}
	pt := &e.parts[p]
	pt.recovering = true
	e.recovering++
	defer func() {
		pt.recovering = false
		e.recovering--
		r.cond.Broadcast()
	}()
	for e.inUse > 0 || pt.inUse > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
	err := e.fleet.RecoverShard(p)
	r.mu.Lock()
	// Planned against the replaced vault, these refuse every pass;
	// Release frees their EPC on the enclaves they charged.
	releaseFull(e)
	releasePart(pt)
	e.recoveries++
	return err
}

// VaultStats is one vault's slice of the registry counters.
type VaultStats struct {
	ID         string
	Resident   bool // holds at least one planned workspace
	Workspaces int  // full-graph workspaces, cached + checked out
	// NodeWorkspaces counts the node-query (subgraph) pool, cached +
	// checked out.
	NodeWorkspaces int
	Requests       uint64 // successful Acquires + AcquireSubgraphs
	// NodeQueries is the AcquireSubgraph share of Requests.
	NodeQueries uint64
	Plans       uint64 // workspaces planned, either kind (cold starts)
	Evictions   uint64 // workspaces evicted to admit other vaults
}

// Stats is a snapshot of the scheduler's counters since New.
type Stats struct {
	Vaults    int // registered
	Resident  int // holding workspace EPC
	Requests  uint64
	Plans     uint64
	Evictions uint64

	// The EPC figures and the ledger sum the shared enclave and every
	// fleet's shard enclaves.
	EPCUsed  int64 // persistent + workspace bytes currently charged
	EPCFree  int64 // headroom before the next plan must evict
	EPCLimit int64

	// Ledger is the transition ledger at snapshot time — ECALL/OCALL
	// counts, boundary bytes, page swaps — the numbers the serving
	// /metrics surface exposes as enclave counters.
	Ledger enclave.Ledger

	PerVault []VaultStats // sorted by ID
}

// addEnclave adds encl's occupancy and ledger, if there is one.
func (st *Stats) addEnclave(encl *enclave.Enclave) {
	if encl == nil {
		return
	}
	st.EPCUsed += encl.EPCUsed()
	st.EPCFree += encl.EPCFree()
	st.EPCLimit += encl.EPCLimit()
	st.Ledger = st.Ledger.Add(encl.Ledger())
}

// Stats returns a snapshot of the registry and per-vault counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Vaults:    len(r.vaults),
		Requests:  r.requests,
		Plans:     r.plans,
		Evictions: r.evictions,
		PerVault:  make([]VaultStats, 0, len(r.vaults)),
	}
	st.addEnclave(r.encl)
	for _, e := range r.vaults {
		if e.resident() {
			st.Resident++
		}
		for p := 0; e.fleet != nil && p < e.fleet.Shards(); p++ {
			st.addEnclave(e.fleet.Shard(p).Enclave)
		}
		inUse, cached := e.subCounts()
		st.PerVault = append(st.PerVault, VaultStats{
			ID:             e.id,
			Resident:       e.resident(),
			Workspaces:     e.inUse + len(e.free),
			NodeWorkspaces: inUse + cached,
			Requests:       e.requests,
			NodeQueries:    e.nodeQueries,
			Plans:          e.plans,
			Evictions:      e.evictions,
		})
	}
	sort.Slice(st.PerVault, func(i, j int) bool { return st.PerVault[i].ID < st.PerVault[j].ID })
	return st
}

// Close evicts every cached workspace and fails all further Acquires with
// ErrClosed. Workspaces still checked out are released (and their EPC
// freed) as their holders call Release, so after Close and all in-flight
// Releases the enclave is back to its deploy-time baseline. Registered
// vaults stay deployed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	// Plain release, not evictLocked: shutdown is not EPC pressure and must
	// not inflate the eviction counters.
	for _, e := range r.vaults {
		r.releaseAllLocked(e)
	}
	r.cond.Broadcast()
}
