package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
	"gnnvault/internal/obs"
)

// Sharded deployment: the vault split across a multi-enclave fleet. One
// enclave's EPC caps how large a private graph a single vault can seal;
// DeploySharded instead cuts the private CSR into contiguous row-range
// shards at nnz-balanced boundaries (graph.Partition) and seals each
// shard — its rectangular CSR slab plus a full copy of the rectifier
// parameters — inside its own enclave with its own EPC budget and cost
// ledger. Cross-shard message passing lowers to a local SpMM over the
// shard's resident rows plus a halo op that gathers the boundary nodes'
// activations from the peers that own them (exec.Fleet); the gathered
// bytes are priced into each shard's ECALL payload exactly like spill
// traffic, so the sealed halo exchange shows up in the modelled cost the
// same way SGX sealed buffers would on real hardware.
//
// The partition preserves per-row non-zero order and pins the parent's
// value-scale hint, so a sharded plan's labels are bit-identical to the
// single-enclave plan's at every precision tier — sharding is a capacity
// and throughput move, never an accuracy one.

// ErrShardUnsupported is returned by DeploySharded for rectifiers the
// fleet cannot run yet: only GCN has a halo lowering. A SAGE or GAT
// fleet needs a partition per operator and, for attention, halo slots for
// two values.
var ErrShardUnsupported = errors.New("core: deployment not shardable (GCN rectifier required)")

// ShardFault attributes a sharded-inference failure to the shard whose
// enclave caused it, so the serving layer can trip that shard's circuit
// breaker instead of guessing from an opaque error string. It wraps the
// underlying cause (errors.Is sees enclave.ErrEnclaveLost through it)
// and also rides inside the abort cause every peer unwinds with, so
// errors.As recovers the culprit shard from echo errors too.
type ShardFault struct {
	// Shard is the index of the shard whose enclave failed.
	Shard int
	// Err is the underlying failure — typically wrapping
	// enclave.ErrEnclaveLost.
	Err error
}

// Error formats the fault with its shard index.
func (f *ShardFault) Error() string { return fmt.Sprintf("core: shard %d: %v", f.Shard, f.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *ShardFault) Unwrap() error { return f.Err }

// ShardedVault is a GNNVault deployment split across a fleet of shard
// enclaves. The backbone and rectifier objects are shared (the same
// trained parameters everywhere); each shard holds its own enclave,
// sealed with the shard's row-range slab of the private adjacency. The
// vault pointers are atomic so RecoverShard can swap a dead shard's
// vault for a freshly provisioned one while stats readers keep loading
// a consistent snapshot.
type ShardedVault struct {
	Backbone *Backbone
	Part     *graph.Partition

	rectifier    *Rectifier
	privateGraph *graph.Graph
	cost         enclave.CostModel
	vaults       []atomic.Pointer[Vault]

	// features is the fleet's one SetCalibrationFeatures registration and
	// public-half store (store.go), read by the sharded planner and passes.
	// Every shard vault points at the same record — per-shard subgraph
	// planners calibrate against it — and it lives here, not on a shard,
	// so replacing a shard's vault (RecoverShard) cannot drop it.
	features atomic.Pointer[registration]
}

// DeploySharded provisions a trained GNNVault across shards enclaves,
// each created with the given (per-shard) cost model: the private CSR is
// cut at nnz-balanced row boundaries and every shard's enclave is charged
// for the rectifier parameters plus its own slab — so the fleet's
// admissible graph size scales with the shard count while each enclave's
// EPC stays fixed. Fails with ErrShardUnsupported for non-GCN rectifiers
// and with enclave.ErrEPCExhausted (wrapped) when a shard's residents do
// not fit its EPC.
func DeploySharded(bb *Backbone, rec *Rectifier, private *graph.Graph, cost enclave.CostModel, shards int) (*ShardedVault, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: sharded deploy wants >= 1 shards, got %d", shards)
	}
	for _, c := range rec.convs {
		if _, ok := c.(*nn.GCNConv); !ok {
			return nil, fmt.Errorf("%w: rectifier conv %T", ErrShardUnsupported, c)
		}
	}
	part := graph.NewPartition(rec.Adjacency(), shards)
	sv := &ShardedVault{Backbone: bb, Part: part, rectifier: rec, privateGraph: private, cost: cost}
	sv.vaults = make([]atomic.Pointer[Vault], shards)
	for s := 0; s < shards; s++ {
		v, err := sv.provisionShard(s)
		if err != nil {
			sv.Undeploy()
			return nil, fmt.Errorf("core: deploying shard %d: %w", s, err)
		}
		sv.vaults[s].Store(v)
	}
	return sv, nil
}

// provisionShard creates and seals one shard vault: a fresh enclave under
// the deployment's cost model, charged for the rectifier parameters plus
// the shard's CSR slab. Used at deploy time and again by RecoverShard.
func (sv *ShardedVault) provisionShard(s int) (*Vault, error) {
	// Each shard enclave's measurement covers the rectifier identity
	// plus its shard index, so peers have distinct sealing keys.
	encl := enclave.New(sv.cost, sv.rectifier.Identity(), []byte{byte(s)})
	return deployInto(encl, sv.Backbone, sv.rectifier, sv.privateGraph, nil, sv.Part.CSR[s].NumBytes())
}

// Shards returns the fleet's shard count.
func (sv *ShardedVault) Shards() int { return len(sv.vaults) }

// Shard returns shard s's current vault — its own enclave over the
// shared model. Node-query serving plans per-shard subgraph workspaces
// through it. The pointer is a snapshot: after a RecoverShard it names
// the replaced vault, so callers must not cache it across failures.
func (sv *ShardedVault) Shard(s int) *Vault { return sv.vaults[s].Load() }

// Owner returns the shard owning global node u.
func (sv *ShardedVault) Owner(u int) int { return sv.Part.Owner(u) }

// Nodes returns the node count of the deployed private graph.
func (sv *ShardedVault) Nodes() int { return sv.privateGraph.N() }

// Classes returns the label-space width every served prediction reduces to.
func (sv *ShardedVault) Classes() int { return sv.vaults[0].Load().Classes() }

// Design returns the deployed rectifier's communication scheme.
func (sv *ShardedVault) Design() RectifierDesign { return sv.rectifier.Design }

// Undeploy returns every shard's persistent EPC and drops the fleet's
// feature registration with its embedding store. Idempotent.
func (sv *ShardedVault) Undeploy() {
	sv.features.Store(nil)
	for s := range sv.vaults {
		if v := sv.vaults[s].Load(); v != nil {
			v.Undeploy()
		}
	}
}

// SetCalibrationFeatures registers the deployed graph's public feature
// matrix for the whole fleet, with Vault.SetCalibrationFeatures' contract:
// calibration batch for reduced-precision plans — the sharded planner's and
// the per-shard subgraph planners' alike — and memo key of the fleet's one
// public-half store, which full-graph passes over this same matrix reuse.
// One registration is shared by the fleet and every shard vault. Must not
// race RecoverShard.
func (sv *ShardedVault) SetCalibrationFeatures(x *mat.Matrix) error {
	reg, err := newRegistration(x, sv.privateGraph.N(), sv.Backbone.FeatureDim)
	if err != nil {
		return err
	}
	sv.features.Store(reg)
	for s := range sv.vaults {
		sv.vaults[s].Load().features.Store(reg)
	}
	return nil
}

// ShardedWorkspace is a full-graph inference plan over the shard fleet:
// the backbone compiled once at full height in the normal world, one
// rectifier machine per shard — lowered against the shard's rectangular
// CSR with a halo gather per conv layer — coupled into an exec.Fleet, and
// per-shard EPC, payload, spill and halo accounting. PredictInto fans one
// modelled ECALL out per shard (concurrently — the fleet's barriers
// require it) and the shards write disjoint ranges of one label buffer,
// so stitching is free. Like Workspace, it belongs to one goroutine at a
// time.
type ShardedWorkspace struct {
	Rows int

	sv     *ShardedVault
	bbMach *exec.Machine
	bbIn   []*mat.Matrix
	own    []*mat.Matrix // bbMach's stable views of the RequiredEmbeddings blocks, in that order
	fleet  *exec.Fleet

	// Per-shard state, indexed by shard. shardEmbs[s] holds reusable view
	// headers over the pass's block embeddings (own, or the public-half
	// store's), rebound to the shard's row range every pass; shardLabels[s]
	// is the shard's slice of the shared label buffer.
	shardEmbs   [][]*mat.Matrix
	shardLabels [][]int
	payload     []int64
	spill       []int64
	halo        []int64
	epc         []int64
	ecalls      []func() error
	errs        []error
	ecIDs       []uint64

	// Replan state for shard recovery: the per-shard programs and machine
	// configs (including the calibrated scales, so a rebuilt machine
	// quantizes on the identical grid), the fp64 reference labels of the
	// calibration batch, and the plan config — everything rejoinShard
	// needs to rebuild one shard's machine and re-prove bit-identity.
	progs     []*exec.Program
	mcfgs     []exec.Config
	refLabels []int
	planCfg   PlanConfig

	// inflight guards the workspace's single-pass-at-a-time contract and
	// lets Abort know whether a poison could still reach a live pass.
	inflight atomic.Bool

	labels   []int
	rec      obs.Recorder
	released bool
}

// PlanSharded builds a reusable sharded inference workspace for batches
// of rows nodes (rows must equal the deployed graph's node count). Every
// PlanConfig knob keeps its PlanWith meaning, applied per shard: an
// EPCBudgetBytes is each *shard's* budget — tiles derive from the shard's
// own row count — and reduced precisions calibrate once against the
// unsharded fp64 reference, so every shard quantizes on the same grid and
// the fleet's labels stay bit-identical to the single-enclave plan's.
func (sv *ShardedVault) PlanSharded(rows int, cfg PlanConfig) (*ShardedWorkspace, error) {
	if n := sv.privateGraph.N(); rows != n {
		return nil, fmt.Errorf("core: sharded plan rows %d != deployed graph nodes %d", rows, n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	part := sv.Part
	shards := sv.Shards()
	elem := cfg.Precision.Elem()
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.Nop
	}

	// Per-shard rectifier programs: identical lowering everywhere (the
	// fleet checks), with a halo gather between each conv's MatMul and
	// SpMM whenever the partition has boundary columns at all — shards
	// whose own halo is empty still emit the op, as a barrier the peers'
	// gathers rely on.
	withHalo := part.HaloCols() > 0
	progs := make([]*exec.Program, shards)
	for s := range progs {
		var hs []exec.HaloSlot
		if withHalo {
			hs = exec.HaloSlots(part.Bounds, part.Halo[s])
		}
		progs[s] = sv.rectifier.compileRectifier(part.Rows(s), part.CSR[s], hs)
	}

	needed := sv.rectifier.RequiredEmbeddings()
	bbMach, blocks, err := sv.Backbone.planBackbone(rows, nil, needed, exec.Config{Workers: cfg.Workers, Recorder: rec})
	if err != nil {
		return nil, fmt.Errorf("core: compiling backbone plan: %w", err)
	}
	own := selectEmbeddings(blocks, needed)

	// Reduced tiers calibrate against the unsharded reference program —
	// the scale grid every shard must share — and remap the scales onto
	// each shard's value table (halo values copy their source's grid).
	var baseScales [][]float64
	var refLabels []int
	var calibEmbs []*mat.Matrix
	reg := sv.features.Load()
	if elem != exec.F64 {
		fullProg := sv.rectifier.compileRectifier(rows, nil, nil)
		if baseScales, refLabels, calibEmbs, err = calibrateReduced(reg, fullProg, bbMach, own, cfg); err != nil {
			return nil, err
		}
	}

	machines := make([]*exec.Machine, shards)
	mcfgs := make([]exec.Config, shards)
	for s := range machines {
		mcfg := exec.Config{Workers: 1, Elem: elem, Recorder: rec} // in-enclave: the shard ECALL's one thread
		if cfg.tiled() {
			mcfg.TileRows = deriveTileRows(cfg, progs[s].MaxWidth(), part.Rows(s), cfg.Precision.ElemBytes())
		}
		if elem != exec.F64 {
			if mcfg.Scales, err = exec.ShardScales(progs[s], baseScales); err != nil {
				return nil, fmt.Errorf("core: shard %d scales: %w", s, err)
			}
		}
		mcfgs[s] = mcfg
		m, err := progs[s].NewMachine(mcfg)
		if err != nil {
			return nil, fmt.Errorf("core: compiling shard %d plan: %w", s, err)
		}
		machines[s] = m
	}
	fleet, err := exec.NewFleet(machines)
	if err != nil {
		return nil, fmt.Errorf("core: assembling shard fleet: %w", err)
	}

	ws := &ShardedWorkspace{
		Rows:        rows,
		sv:          sv,
		bbMach:      bbMach,
		bbIn:        make([]*mat.Matrix, 1),
		own:         own,
		fleet:       fleet,
		shardEmbs:   make([][]*mat.Matrix, shards),
		shardLabels: make([][]int, shards),
		payload:     make([]int64, shards),
		spill:       make([]int64, shards),
		halo:        make([]int64, shards),
		epc:         make([]int64, shards),
		ecalls:      make([]func() error, shards),
		errs:        make([]error, shards),
		ecIDs:       make([]uint64, shards),
		progs:       progs,
		mcfgs:       mcfgs,
		refLabels:   refLabels,
		planCfg:     cfg,
		labels:      make([]int, rows),
		rec:         rec,
	}
	for s := 0; s < shards; s++ {
		s := s
		lo, hi := part.Bounds[s], part.Bounds[s+1]
		local := hi - lo
		embs := make([]*mat.Matrix, len(needed))
		for k := range embs {
			embs[k] = &mat.Matrix{}
		}
		ws.shardEmbs[s] = embs
		ws.shardLabels[s] = ws.labels[lo:hi:hi]
		for _, i := range needed {
			ws.payload[s] += int64(sv.Backbone.BlockDims[i]) * int64(local) * cfg.Precision.ElemBytes()
		}
		m := machines[s]
		ws.halo[s] = m.HaloBytes()
		if m.TileRows() > 0 {
			// Tiled shard: only the staging tiles are enclave-resident;
			// activations — including the halo extension rows — stream
			// through sealed spill buffers, charged as transfer.
			ws.epc[s] = m.TileBytes()
			ws.spill[s] = m.SpillTraffic(local)
		} else {
			ws.epc[s] = m.BufferBytes() + ws.payload[s]
		}
		ws.ecalls[s] = func() error {
			_, err := ws.fleet.RunShard(s, local, ws.shardEmbs[s], ws.shardLabels[s])
			return err
		}
	}

	// Admission gate for reduced tiers: the actual fleet must reproduce
	// the fp64 reference labels on the calibration batch's embeddings.
	if elem != exec.F64 {
		check := make([]int, rows)
		ws.bindShardEmbs(calibEmbs, reg, true)
		if err := ws.runFleet(check); err != nil {
			return nil, fmt.Errorf("core: calibration fleet round: %w", err)
		}
		if err := agreementFloor(check, refLabels, cfg); err != nil {
			return nil, err
		}
	}

	for s := 0; s < shards; s++ {
		if err := sv.vaults[s].Load().Enclave.Alloc(ws.epc[s]); err != nil {
			for t := 0; t < s; t++ {
				sv.vaults[t].Load().Enclave.Free(ws.epc[t])
			}
			return nil, fmt.Errorf("core: shard %d inference workspace does not fit EPC: %w", s, err)
		}
	}
	return ws, nil
}

// bindShardEmbs rebinds every shard's embedding views onto its row range
// of embs, a pass's full-height block embeddings in RequiredEmbeddings
// order, and declares to every shard machine whether they are reg's
// stored blocks (registration.declareInputs: a shard's range of the store
// is as immutable as the whole) — called every pass, and zero-alloc: the
// view headers are planned once.
func (ws *ShardedWorkspace) bindShardEmbs(embs []*mat.Matrix, reg *registration, reused bool) {
	part := ws.sv.Part
	for s := range ws.shardEmbs {
		lo, hi := part.Bounds[s], part.Bounds[s+1]
		for k, m := range embs {
			m.ViewRows(lo, hi, ws.shardEmbs[s][k])
		}
		reg.declareInputs(ws.fleet.Machine(s), reused)
	}
}

// runFleet executes one fleet round outside any enclave accounting —
// plan-time and recovery only (the calibration agreement gate). labels
// must have Rows entries; each shard writes its own range.
func (ws *ShardedWorkspace) runFleet(labels []int) error {
	part := ws.sv.Part
	errs := make([]error, ws.fleet.Shards())
	var wg sync.WaitGroup
	for s := 0; s < ws.fleet.Shards(); s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := part.Bounds[s], part.Bounds[s+1]
			_, errs[s] = ws.fleet.RunShard(s, hi-lo, ws.shardEmbs[s], labels[lo:hi])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shards returns the workspace's shard count.
func (ws *ShardedWorkspace) Shards() int { return ws.fleet.Shards() }

// EnclaveBytes returns the total EPC charged across all shard enclaves at
// plan time.
func (ws *ShardedWorkspace) EnclaveBytes() int64 {
	var n int64
	for _, b := range ws.epc {
		n += b
	}
	return n
}

// ShardEnclaveBytes returns the EPC charged to shard s's enclave.
func (ws *ShardedWorkspace) ShardEnclaveBytes(s int) int64 { return ws.epc[s] }

// HaloBytes returns the boundary-activation bytes one inference exchanges
// across the fleet — the per-call halo traffic priced into the shard
// ECALL payloads and surfaced on /metrics.
func (ws *ShardedWorkspace) HaloBytes() int64 { return ws.fleet.HaloBytes() }

// ShardHaloBytes returns shard s's gathered halo bytes per call.
func (ws *ShardedWorkspace) ShardHaloBytes(s int) int64 { return ws.halo[s] }

// PayloadBytes returns the total per-call ECALL embedding payload summed
// over shards — each shard receives exactly its own rows of each required
// block, so the fleet total matches the unsharded plan's payload.
func (ws *ShardedWorkspace) PayloadBytes() int64 {
	var n int64
	for _, b := range ws.payload {
		n += b
	}
	return n
}

// SpillBytes returns the total per-call tile-flush traffic over shards
// (0 when every shard planned untiled).
func (ws *ShardedWorkspace) SpillBytes() int64 {
	var n int64
	for _, b := range ws.spill {
		n += b
	}
	return n
}

// Release returns every shard's workspace EPC (on each shard's current
// vault — after a recovery the charge lives on the replacement enclave).
// Idempotent.
func (ws *ShardedWorkspace) Release() {
	if ws.released {
		return
	}
	ws.released = true
	for s := range ws.sv.vaults {
		ws.fleet.Machine(s).SetInputEpoch(nil) // drop the store record the shard's codes were keyed on
		ws.sv.vaults[s].Load().Enclave.Free(ws.epc[s])
	}
}

// Abort poisons any pass currently in flight on this workspace with the
// given cause: every shard unwinds at its next fleet barrier and the
// pass returns an error wrapping the cause instead of hanging — the hook
// the serving layer uses when a shard is administratively pulled or a
// deadline expires from outside. Aborting an idle workspace is a no-op,
// and a pass already past its last barrier may still complete
// successfully; the contract is "clean error or clean success, never a
// hung barrier".
func (ws *ShardedWorkspace) Abort(cause error) {
	if ws.inflight.Load() {
		ws.fleet.Abort(cause)
	}
}

// PredictInto runs one full sharded inference with no deadline; see
// PredictIntoContext.
func (sv *ShardedVault) PredictInto(x *mat.Matrix, ws *ShardedWorkspace) ([]int, InferenceBreakdown, error) {
	return sv.PredictIntoContext(context.Background(), x, ws)
}

// PredictIntoContext runs one full sharded inference: the backbone once
// at full height in the normal world — or, when x is the fleet's registered
// feature matrix and a pass has already published its embeddings, the
// public-half store's blocks instead (InferenceBreakdown.BackboneReused;
// see Vault.PredictInto) — then one modelled ECALL per shard,
// fanned out concurrently — each carries the shard's embedding rows plus
// its spill and halo traffic in, and its rows of the label vector out,
// while the fleet's barriers synchronise the per-layer halo exchange
// between the enclaves. The returned labels are in seed (global row)
// order, owned by the workspace and overwritten by the next call; they
// are bit-identical to the single-enclave plan's at every precision tier.
//
// Cancelling or expiring ctx aborts the fleet pass: every shard unwinds
// at its next barrier and the call returns an error wrapping ctx.Err()
// — bounded unwind, never a hung barrier. A shard enclave failure (e.g.
// enclave.ErrEnclaveLost under a fault plan) likewise aborts the pass;
// the returned error is a *ShardFault naming the culprit shard, so the
// serving layer can trip that shard's breaker and recover it.
//
// The breakdown's byte and call counts sum over shards; its modelled time
// components follow the slowest shard, since the fleet runs them in
// parallel. PeakEPCBytes is the busiest single enclave — each shard has
// its own EPC.
func (sv *ShardedVault) PredictIntoContext(ctx context.Context, x *mat.Matrix, ws *ShardedWorkspace) ([]int, InferenceBreakdown, error) {
	var bd InferenceBreakdown
	if ws.released {
		return nil, bd, fmt.Errorf("core: PredictInto on released sharded workspace")
	}
	if ws.sv != sv {
		return nil, bd, fmt.Errorf("core: workspace planned for a different sharded vault")
	}
	if x == nil {
		return nil, bd, fmt.Errorf("core: nil input features")
	}
	if x.Rows != ws.Rows {
		return nil, bd, fmt.Errorf("core: input rows %d != planned rows %d", x.Rows, ws.Rows)
	}
	if x.Cols != sv.Backbone.FeatureDim {
		return nil, bd, fmt.Errorf("core: input features %d != backbone feature dim %d", x.Cols, sv.Backbone.FeatureDim)
	}
	if err := ctx.Err(); err != nil {
		return nil, bd, fmt.Errorf("core: sharded inference: %w", err)
	}
	if !ws.inflight.CompareAndSwap(false, true) {
		return nil, bd, fmt.Errorf("core: sharded workspace already has a pass in flight")
	}
	defer ws.inflight.Store(false)
	// An Abort that landed while the workspace was idle left the barrier
	// poisoned with a stale cause; re-arm before the pass begins.
	ws.fleet.Reset()

	shards := sv.Shards()
	vaults := make([]*Vault, shards)
	before := make([]enclave.Ledger, shards)
	for s := range vaults {
		v := sv.vaults[s].Load()
		vaults[s] = v
		before[s] = v.Enclave.Ledger()
		v.Enclave.ResetPeak()
	}

	// Flight recorder: one trace per call — a query root, the backbone
	// stage, and one ECALL span per shard, so the trace tree shows the
	// fan-out and each shard's halo-priced payload.
	rec := ws.rec
	recOn := rec.Enabled()
	var trace, bbID uint64
	var qStart, stageStart int64
	if recOn {
		trace = rec.NewSpan()
		bbID = rec.NewSpan()
		ws.bbMach.SetTrace(trace, bbID)
		for s := range ws.ecIDs {
			ws.ecIDs[s] = rec.NewSpan()
			ws.fleet.Machine(s).SetTrace(trace, ws.ecIDs[s])
		}
		qStart = rec.Clock()
		stageStart = qStart
	}

	start := time.Now()
	reg := sv.features.Load()
	embs, reused := reg.embeddings(x, ws.bbMach, ws.bbIn, ws.own)
	bd.BackboneTime, bd.BackboneReused = time.Since(start), reused
	if recOn {
		stageStart = recordBackbone(rec, trace, bbID, stageStart, ws.Rows, bd)
	}

	// Fan out: one ECALL per shard, necessarily concurrent — every shard
	// must reach the fleet barriers for any to pass them. A watcher
	// poisons the fleet when ctx expires, and a shard whose ECALL fails
	// at the enclave gate (fault plan, lost enclave) poisons it too — its
	// peers would otherwise wait forever on a barrier it never reaches.
	ws.bindShardEmbs(embs, reg, reused)
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	if ctx.Done() != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctx.Done():
				ws.fleet.Abort(ctx.Err())
			case <-watchDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			resultBytes := int64(len(ws.shardLabels[s])) * 8
			err := vaults[s].Enclave.Ecall(ws.payload[s]+ws.spill[s]+ws.halo[s], resultBytes, ws.ecalls[s])
			if err != nil {
				ws.errs[s] = err
				if !errors.Is(err, exec.ErrFleetAborted) {
					ws.fleet.Abort(&ShardFault{Shard: s, Err: err})
				}
				return
			}
			ws.errs[s] = nil
		}()
	}
	wg.Wait()
	close(watchDone)
	watchWG.Wait()
	// Re-arm the barrier for the next pass whether or not this one was
	// poisoned; every RunShard of this pass has returned.
	ws.fleet.Reset()
	if err := ws.firstFault(); err != nil {
		return nil, bd, err
	}
	if recOn {
		now := rec.Clock()
		for s := range ws.ecIDs {
			rec.Record(obs.Span{Trace: trace, ID: ws.ecIDs[s], Parent: trace, Kind: obs.SpanECall,
				Rows:  int32(len(ws.shardLabels[s])),
				Bytes: ws.payload[s] + ws.spill[s] + ws.halo[s] + int64(len(ws.shardLabels[s]))*8,
				Start: stageStart, Dur: now - stageStart})
		}
		rec.Record(obs.Span{Trace: trace, ID: trace, Kind: obs.SpanQuery,
			Rows: int32(ws.Rows), Start: qStart, Dur: now - qStart})
	}

	var slowest time.Duration
	for s, v := range vaults {
		after := v.Enclave.Ledger()
		tr := after.TransferTime() - before[s].TransferTime()
		en := after.EnclaveTime() - before[s].EnclaveTime()
		if tr+en >= slowest {
			slowest = tr + en
			bd.TransferTime, bd.EnclaveTime = tr, en
		}
		bd.BytesIn += after.BytesIn - before[s].BytesIn
		bd.ECalls += after.ECalls - before[s].ECalls
		if after.PeakEPCBytes > bd.PeakEPCBytes {
			bd.PeakEPCBytes = after.PeakEPCBytes
		}
	}
	return ws.labels, bd, nil
}

// firstFault selects the error a failed sharded pass returns. A shard
// that failed for its own reason — not merely the poisoned barrier — is
// the culprit and is reported as a *ShardFault; otherwise the first echo
// error is returned (it wraps the abort cause, so errors.Is still sees
// the context error or the culprit's ShardFault through it). Nil when
// every shard succeeded.
func (ws *ShardedWorkspace) firstFault() error {
	var echo error
	for s, err := range ws.errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, exec.ErrFleetAborted) {
			return &ShardFault{Shard: s, Err: err}
		}
		if echo == nil {
			echo = fmt.Errorf("core: sharded inference: %w", err)
		}
	}
	return echo
}

// RecoverShard replaces shard s's lost enclave with a freshly
// provisioned one and rejoins it to every given workspace: the shard's
// CSR slab and the rectifier parameters are re-sealed into a new enclave
// (same cost model and measurement as the original deploy), the fleet's
// feature registration — with whatever its store already holds — is
// carried onto it, the vault pointer is swapped atomically, and each
// workspace rebuilds the shard's machine under its original plan config —
// including the calibrated int8 scales, so the rebuilt shard quantizes on
// the identical grid — and re-proves label agreement with the stored fp64
// reference through a live fleet round.
//
// No pass may be in flight on any of the workspaces (the serving layer
// quiesces first); RecoverShard refuses busy workspaces — and *claims*
// each idle workspace's in-flight slot for the duration, so a pass
// racing the recovery is refused by the same CAS rather than running
// through a fleet whose machine is being swapped. On a mid-recovery
// error the shard stays dead and the call can simply be retried.
func (sv *ShardedVault) RecoverShard(s int, wss ...*ShardedWorkspace) error {
	if s < 0 || s >= len(sv.vaults) {
		return fmt.Errorf("core: recover shard %d of %d", s, len(sv.vaults))
	}
	claimed := make([]*ShardedWorkspace, 0, len(wss))
	defer func() {
		for _, ws := range claimed {
			ws.inflight.Store(false)
		}
	}()
	for _, ws := range wss {
		if ws.sv != sv {
			return fmt.Errorf("core: recover shard %d: workspace planned for a different sharded vault", s)
		}
		if !ws.inflight.CompareAndSwap(false, true) {
			return fmt.Errorf("core: recover shard %d: workspace has a pass in flight", s)
		}
		claimed = append(claimed, ws)
	}
	// The old enclave is gone with everything charged to it; Undeploy
	// only keeps the vault's own books consistent.
	sv.vaults[s].Load().Undeploy()
	v, err := sv.provisionShard(s)
	if err != nil {
		return fmt.Errorf("core: re-provisioning shard %d: %w", s, err)
	}
	v.features.Store(sv.features.Load())
	sv.vaults[s].Store(v)
	for _, ws := range wss {
		if err := ws.rejoinShard(s); err != nil {
			return fmt.Errorf("core: rejoining shard %d: %w", s, err)
		}
	}
	return nil
}

// rejoinShard rebuilds shard s's machine from the stored plan state,
// swaps it into the fleet, charges the workspace EPC on the replacement
// enclave, and — for reduced precision tiers — re-runs the calibration
// agreement gate through a fleet round so the recovered shard is proven
// bit-compatible before it serves.
func (ws *ShardedWorkspace) rejoinShard(s int) error {
	m, err := ws.progs[s].NewMachine(ws.mcfgs[s])
	if err != nil {
		return fmt.Errorf("recompiling machine: %w", err)
	}
	if err := ws.sv.vaults[s].Load().Enclave.Alloc(ws.epc[s]); err != nil {
		return fmt.Errorf("workspace does not fit replacement EPC: %w", err)
	}
	if err := ws.fleet.Replace(s, m); err != nil {
		ws.sv.vaults[s].Load().Enclave.Free(ws.epc[s])
		return err
	}
	if ws.mcfgs[s].Elem != exec.F64 {
		reg := ws.sv.features.Load()
		if reg == nil {
			return fmt.Errorf("reduced-precision plan lost its calibration batch")
		}
		embs, reused := reg.embeddings(reg.x, ws.bbMach, ws.bbIn, ws.own)
		ws.bindShardEmbs(embs, reg, reused)
		check := make([]int, ws.Rows)
		if err := ws.runFleet(check); err != nil {
			return fmt.Errorf("agreement fleet round: %w", err)
		}
		if err := agreementFloor(check, ws.refLabels, ws.planCfg); err != nil {
			return fmt.Errorf("recovered shard failed calibration agreement: %w", err)
		}
	}
	return nil
}

// RouteSeeds returns the shard a node-query batch routes to: the owner of
// the first seed. The whole batch goes to one shard — splitting seeds
// would change the joint L-hop frontier the subgraph engine extracts and
// break bit-identity with the single-enclave answer. Fails with
// ErrNodeOutOfRange on an empty batch or an out-of-range first seed (the
// per-seed validation of the query itself happens downstream).
func (sv *ShardedVault) RouteSeeds(seeds []int) (int, error) {
	if len(seeds) == 0 {
		return 0, ErrNodeOutOfRange
	}
	if u := seeds[0]; u >= 0 && u < sv.privateGraph.N() {
		return sv.Part.Owner(u), nil
	}
	return 0, ErrNodeOutOfRange
}

// PredictNodesAt answers a node-level query on shard s's vault with no
// deadline; see PredictNodesAtContext.
func (sv *ShardedVault) PredictNodesAt(x *mat.Matrix, seeds []int, s int, ws *SubgraphWorkspace) ([]int, int64, InferenceBreakdown, error) {
	return sv.PredictNodesAtContext(context.Background(), x, seeds, s, ws)
}

// PredictNodesAtContext answers a node-level query on shard s's vault
// (ws must be a subgraph workspace planned from that vault) and prices
// the cross-shard traffic the query induced: every extracted node owned
// by a peer shard models one OCALL from s's enclave — the sealed fetch
// of that node's embedding row — and the fetched bytes are returned as
// halo traffic for the caller's accounting. Labels alias ws, one per
// seed. A cancelled or expired ctx fails the query before its ECALL; a
// lost shard enclave fails it with enclave.ErrEnclaveLost (wrapped).
func (sv *ShardedVault) PredictNodesAtContext(ctx context.Context, x *mat.Matrix, seeds []int, s int, ws *SubgraphWorkspace) ([]int, int64, InferenceBreakdown, error) {
	v := sv.vaults[s].Load()
	labels, bd, err := v.PredictNodesIntoContext(ctx, x, seeds, ws)
	if err != nil {
		return nil, 0, bd, err
	}
	var haloBytes int64
	for _, u := range ws.ExtractedNodes() {
		if sv.Part.Owner(u) != s {
			v.Enclave.Ocall()
			haloBytes += ws.payload
		}
	}
	return labels, haloBytes, bd, nil
}
