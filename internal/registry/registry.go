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
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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

// NodeQueryConfig fixes the subgraph sampling geometry for the
// registry's node-level serving path. Subgraph workspaces are planned
// (and evicted) by the same scheduler as full-graph workspaces, but their
// EPC charge is bounded by hops × fanout × seeds instead of the graph
// size — a vault whose full-graph plan can never be admitted may still
// serve node queries.
type NodeQueryConfig struct {
	// Hops is the neighborhood expansion depth L. Default 2.
	Hops int
	// Fanout caps sampled neighbours per node per hop; 0 = unlimited
	// (exact L-hop, worst-case O(graph)). Default 10.
	Fanout int
	// MaxSeeds bounds the seed nodes one coalesced extraction serves.
	// Default 16.
	MaxSeeds int
	// Seed drives the deterministic sampler.
	Seed uint64
}

// WithDefaults returns the config with unset fields replaced by the
// documented defaults (hops 2, fanout 10, 16 seeds). Exported so other
// front-ends (serve.Server) share one default table.
func (c NodeQueryConfig) WithDefaults() NodeQueryConfig {
	if c.Hops <= 0 {
		c.Hops = 2
	}
	if c.Fanout < 0 {
		c.Fanout = 10
	}
	if c.MaxSeeds <= 0 {
		c.MaxSeeds = 16
	}
	return c
}

// Subgraph returns the sampling geometry as a subgraph.Config.
func (c NodeQueryConfig) Subgraph() subgraph.Config {
	return subgraph.Config{Hops: c.Hops, Fanout: c.Fanout, Seed: c.Seed}
}

// Config tunes the scheduler.
type Config struct {
	// WorkspacesPerVault caps how many concurrent inference workspaces one
	// vault may hold (its maximum worker parallelism). Default 2, matching
	// serve.Config's worker default. Full-graph and subgraph workspaces
	// are capped independently.
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
	if c.WorkspacesPerVault <= 0 {
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

// entry is one registered vault's residency state.
type entry struct {
	id    string
	vault *core.Vault

	free  []*core.Workspace // planned, idle workspaces (cap fixed at Register)
	inUse int               // workspaces currently checked out via Acquire

	// Node-query pool: the subgraph-plan mirror of free/inUse, populated
	// only after EnableNodeQueries. x is the vault's public feature
	// matrix, handed out with every subgraph checkout.
	x           *mat.Matrix
	freeSub     []*core.SubgraphWorkspace
	inUseSub    int
	nodeQueries uint64

	// wsBytes and subBytes are the EPC the vault's last admitted workspace
	// of each pool charged (0 before the first): what the next plan of
	// that pool will ask the enclave for, so admission can make the room
	// before building anything.
	wsBytes, subBytes int64

	lastServed uint64 // registry clock at the vault's last acquire/release
	requests   uint64
	plans      uint64
	evictions  uint64
}

// resident reports whether the vault holds any workspace EPC (of either
// kind).
func (e *entry) resident() bool {
	return e.inUse > 0 || len(e.free) > 0 || e.inUseSub > 0 || len(e.freeSub) > 0
}

// idle reports whether the vault holds cached EPC with nothing checked
// out — the eviction candidates.
func (e *entry) idle() bool {
	return e.inUse == 0 && e.inUseSub == 0 && (len(e.free) > 0 || len(e.freeSub) > 0)
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

	plans     uint64
	evictions uint64
	requests  uint64
}

// New creates an empty registry over the shared enclave. The enclave is
// typically created with enclave.New over every hosted rectifier's
// Identity, then populated via core.DeployInto and Register.
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
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.vaults[id]; dup {
		return fmt.Errorf("registry: vault %q already registered", id)
	}
	r.vaults[id] = &entry{
		id:    id,
		vault: v,
		// Fixed capacity so the hot-path Release append never allocates.
		free: make([]*core.Workspace, 0, r.cfg.WorkspacesPerVault),
	}
	return nil
}

// Remove releases the vault's cached workspaces (without counting them as
// evictions — removal is administrative, not EPC pressure) and unregisters
// it. The vault's persistent EPC stays charged; call core.Vault.Undeploy to
// release that too. Remove fails while any of the vault's workspaces are
// checked out.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.vaults[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVault, id)
	}
	if e.inUse > 0 || e.inUseSub > 0 {
		return fmt.Errorf("registry: vault %q has %d workspaces in use", id, e.inUse+e.inUseSub)
	}
	r.releaseAllLocked(e) // administrative removal, not EPC pressure
	delete(r.vaults, id)
	r.cond.Broadcast() // freed EPC may admit a waiting Acquire
	return nil
}

// IDs returns the registered vault IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.vaults))
	for id := range r.vaults {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Vault returns the registered vault for id, or nil.
func (r *Registry) Vault(id string) *core.Vault {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.vaults[id]; ok {
		return e.vault
	}
	return nil
}

// EnableNodeQueries registers the vault's public feature matrix and opens
// the node-level serving path for it: subsequent AcquireSubgraph calls may
// plan subgraph workspaces against the registry's NodeQuery geometry. The
// registry itself must have been created with Config.NodeQuery set.
func (r *Registry) EnableNodeQueries(id string, x *mat.Matrix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.cfg.NodeQuery == nil {
		return fmt.Errorf("%w: registry has no NodeQuery config", ErrNodeQueriesDisabled)
	}
	e, ok := r.vaults[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVault, id)
	}
	if x == nil || x.Rows != e.vault.Nodes() {
		return fmt.Errorf("registry: vault %q features must cover %d nodes", id, e.vault.Nodes())
	}
	e.x = x
	if e.freeSub == nil {
		e.freeSub = make([]*core.SubgraphWorkspace, 0, r.cfg.WorkspacesPerVault)
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
// (wrapped) only when nothing is checked out anywhere and no eviction
// could make the plan fit — the request is simply too big for the device.
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
			if r.inUse == 0 {
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
		if n := len(e.freeSub); n > 0 {
			ws := e.freeSub[n-1]
			e.freeSub = e.freeSub[:n-1]
			r.checkoutSubLocked(e)
			return e.vault, ws, e.x, nil
		}
		if e.inUseSub < r.cfg.WorkspacesPerVault {
			ws, err := r.planSubLocked(e)
			if err == nil {
				r.checkoutSubLocked(e)
				return e.vault, ws, e.x, nil
			}
			if !errors.Is(err, enclave.ErrEPCExhausted) {
				return nil, nil, nil, err
			}
			if r.inUse == 0 {
				return nil, nil, nil, fmt.Errorf("registry: vault %q node-query plan cannot be admitted: %w", id, err)
			}
		}
		r.cond.Wait()
	}
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

// checkoutSubLocked records one subgraph workspace handed to a caller.
func (r *Registry) checkoutSubLocked(e *entry) {
	e.inUseSub++
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
	err := r.admitLocked(e, &e.wsBytes, func() (int64, error) {
		var err error
		if ws, err = e.vault.PlanWith(e.vault.Nodes(), r.cfg.Plan); err != nil {
			return 0, err
		}
		return ws.EnclaveBytes(), nil
	})
	return ws, err
}

// planSubLocked is planLocked for the node-query pool.
func (r *Registry) planSubLocked(e *entry) (*core.SubgraphWorkspace, error) {
	nq := r.cfg.NodeQuery
	var ws *core.SubgraphWorkspace
	err := r.admitLocked(e, &e.subBytes, func() (int64, error) {
		var err error
		if ws, err = e.vault.PlanSubgraphWith(nq.MaxSeeds, nq.Subgraph(), r.cfg.Plan); err != nil {
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
// the first plan and a size that grew.
func (r *Registry) admitLocked(e *entry, known *int64, plan func() (int64, error)) error {
	for *known > 0 && r.encl.EPCFree() < *known {
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
			*known = bytes
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
			return err
		}
		r.evictLocked(victim)
	}
}

// lruIdleLocked returns the least-recently-served vault that holds
// workspace EPC but has none checked out (evicting a busy vault would pull
// buffers out from under a running inference), or nil. The requesting
// vault's own cache is never a victim.
func (r *Registry) lruIdleLocked(requester *entry) *entry {
	var victim *entry
	for _, e := range r.vaults {
		if e == requester || !e.idle() {
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
	n := uint64(len(e.free) + len(e.freeSub))
	if rec := r.cfg.Recorder; rec.Enabled() {
		var bytes int64
		for _, ws := range e.free {
			bytes += ws.EnclaveBytes()
		}
		for _, ws := range e.freeSub {
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
	for _, ws := range e.free {
		ws.Release()
	}
	e.free = e.free[:0]
	for _, ws := range e.freeSub {
		ws.Release()
	}
	e.freeSub = e.freeSub[:0]
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
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.vaults[id]
	if !ok || e.inUseSub <= 0 {
		panic(fmt.Sprintf("registry: subgraph release of %q without matching acquire", id))
	}
	e.inUseSub--
	r.inUse--
	r.clock++
	e.lastServed = r.clock
	if r.closed {
		// Close already ran; late releases free their EPC immediately.
		ws.Release()
		r.cond.Broadcast()
		return
	}
	e.freeSub = append(e.freeSub, ws)
	r.cond.Broadcast()
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

	EPCUsed  int64 // persistent + workspace bytes currently charged
	EPCFree  int64 // headroom before the next plan must evict
	EPCLimit int64

	// Ledger is the shared enclave's transition ledger at snapshot time —
	// ECALL/OCALL counts, boundary bytes, page swaps — the numbers the
	// serving /metrics surface exposes as enclave counters.
	Ledger enclave.Ledger

	PerVault []VaultStats // sorted by ID
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
		EPCUsed:   r.encl.EPCUsed(),
		EPCFree:   r.encl.EPCFree(),
		EPCLimit:  r.encl.EPCLimit(),
		Ledger:    r.encl.Ledger(),
		PerVault:  make([]VaultStats, 0, len(r.vaults)),
	}
	for _, e := range r.vaults {
		if e.resident() {
			st.Resident++
		}
		st.PerVault = append(st.PerVault, VaultStats{
			ID:             e.id,
			Resident:       e.resident(),
			Workspaces:     e.inUse + len(e.free),
			NodeWorkspaces: e.inUseSub + len(e.freeSub),
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
