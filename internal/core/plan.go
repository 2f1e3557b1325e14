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
	"gnnvault/internal/obs"
)

// Execution plans. A deployed vault answers a stream of inference requests;
// re-allocating every activation per call makes steady-state throughput
// garbage-collector-bound. Plan splits inference into a one-time setup —
// compile the rectifier into an internal/exec op program, size every buffer,
// charge the enclave's EPC ledger once, pre-bind the ECALL body — and a hot
// PredictInto step that reuses the workspace and touches zero fresh heap.
//
// Plans come in two EPC shapes. The default (PlanConfig zero value) keeps
// the whole rectifier working set — scratch plus transferred embeddings —
// EPC-resident, exactly the pre-tiling behaviour: fast, but O(n × width)
// enclave bytes, which stops fitting real EPCs somewhere around 50k nodes.
// A plan with an EPCBudgetBytes (or explicit TileRows) instead executes the
// same program row tile by row tile: full activations spill to untrusted
// memory (modelled as sealed pages, like SGX paging) and the enclave is
// charged only for the one tile-sized staging buffer, so the footprint
// becomes O(tileRows × width): a 200k-node full-graph plan fits a 64 MB
// budget that its untiled form exceeds 4×. Either shape runs on the one
// enclave thread its ECALL entered on.
//
// There is one full-graph planner and one workspace type. A plan is a
// fleet of parts (exec.Fleet), one ECALL per part: a Vault plan is a
// fleet of one part, a ShardedVault plan (shardplan.go) one part per
// shard — the one multi-thread enclave path.
// Since the fusion pass, both plan shapes also run fewer, fatter ops: the
// compilers fold each conv's bias/ReLU tail into its product op and erase
// the fused-away intermediates, so untiled plans charge less EPC and tiled
// plans flush roughly half the tiles.

// PlanConfig tunes one inference plan. The zero value reproduces the
// classic untiled plan.
type PlanConfig struct {
	// EPCBudgetBytes caps the enclave bytes this plan's *workspace* may
	// charge (persistent deploy-time residents are separate). A non-zero
	// budget selects tiled execution with TileRows derived as
	// budget / (element bytes × widest program value), clamped to
	// [1, rows] — the staging tile fits the budget, and reduced-precision
	// plans buy proportionally taller tiles from the same budget. Every
	// conv kind tiles. A GAT plan additionally charges one attention
	// scratch row (8 B × the structure's longest row), declared by the
	// program, on top of the tile the budget sizes. Negative is refused.
	EPCBudgetBytes int64
	// TileRows, when non-zero, fixes the tile height directly and
	// overrides the budget derivation. Negative is refused.
	TileRows int
	// Workers is the normal-world backbone's kernel parallelism budget
	// (0 = GOMAXPROCS, 1 = inline), carried in the workspace so concurrent
	// servers can run under different budgets. The in-enclave rectifier
	// always runs on the one thread its ECALL entered on.
	Workers int
	// Precision selects the in-enclave kernels (fp64 or int8). The zero
	// value is fp64 — the bit-exact reference. int8 shrinks every enclave
	// byte 8×; an int8 plan requires calibration features
	// (Vault.SetCalibrationFeatures, else ErrCalibrationRequired) and is
	// always checked against the fp64 reference on them, failing with
	// ErrCalibrationFailed below MinAgreement.
	Precision Precision
	// MinAgreement overrides the argmax-agreement floor an int8 plan
	// must reach on the calibration batch (0 = DefaultMinAgreement). A
	// share: values outside [0, 1], and NaN, are refused.
	MinAgreement float64
	// Recorder receives the plan's flight-recorder spans: one query root
	// per call plus backbone/ECALL stage spans and the executor's per-op
	// spans beneath them. Nil means obs.Nop — probes compile in, record
	// nothing, and the hot path keeps 0 allocs/op and bit-identical
	// outputs either way.
	Recorder obs.Recorder
}

// tiled reports whether the config selects tiled streaming execution.
func (c PlanConfig) tiled() bool { return c.EPCBudgetBytes > 0 || c.TileRows > 0 }

// validate refuses a config whose fields are out of range, naming the
// field, instead of letting a planner reinterpret it: a negative tile
// height or budget would plan untiled, a NaN or negative floor would
// become the default, and a floor above 1 would refuse every int8 plan
// as an accuracy failure.
func (c PlanConfig) validate() error {
	switch {
	case !c.Precision.valid():
		return fmt.Errorf("core: unknown plan precision %d", c.Precision)
	case c.EPCBudgetBytes < 0:
		return fmt.Errorf("core: negative PlanConfig.EPCBudgetBytes %d", c.EPCBudgetBytes)
	case c.TileRows < 0:
		return fmt.Errorf("core: negative PlanConfig.TileRows %d", c.TileRows)
	case !(c.MinAgreement >= 0 && c.MinAgreement <= 1):
		return fmt.Errorf("core: PlanConfig.MinAgreement %v outside [0, 1]", c.MinAgreement)
	}
	return nil
}

// fleetOwner is what a full-graph plan is made for: a Vault, which is a
// fleet of one part over its own adjacency, or a ShardedVault, one part
// per shard over the shard's CSR slab.
type fleetOwner interface {
	// part returns part s's current vault. A shard's vault may be swapped
	// by RecoverShard between passes, so passes load it once each.
	part(s int) *Vault
	// reg returns the owner's current feature registration (store.go);
	// nil when nothing is registered.
	reg() *registration
}

func (v *Vault) part(int) *Vault            { return v }
func (v *Vault) reg() *registration         { return v.features.Load() }
func (sv *ShardedVault) part(s int) *Vault  { return sv.vaults[s].Load() }
func (sv *ShardedVault) reg() *registration { return sv.features.Load() }

// Workspace is a full-graph inference plan over a fleet of parts: the
// backbone compiled once at full height in the normal world, one
// rectifier machine per part — a Vault plan has exactly one, a sharded
// plan one per shard, lowered against the shard's rectangular CSR with a
// halo gather per conv layer — coupled into an exec.Fleet and charged
// against each part's enclave (wholly, or tiles-only under a budget), the
// label buffer the parts write disjoint ranges of, and per-part payload,
// spill and halo accounting. A Workspace belongs to one goroutine at a
// time; a serving fleet plans one per worker.
type Workspace struct {
	Rows int

	owner  fleetOwner
	bbMach *exec.Machine // backbone program, normal world
	bbIn   []*mat.Matrix // reused single-input list for bbMach.Run
	own    []*mat.Matrix // bbMach's stable views of the RequiredEmbeddings blocks, in that order
	fleet  *exec.Fleet   // one rectifier machine per part, in-enclave

	// Per-part state, indexed by part; part s owns global rows
	// [bounds[s], bounds[s+1]). partEmbs[s] holds reusable view headers
	// over a round's block embeddings (own, or the public-half store's),
	// rebound to the part's rows every round; partLabels[s] is the part's
	// slice of labels. vaults and before are a pass's snapshots of each
	// part's vault and ledger, and ecIDs its ECALL span IDs — preallocated,
	// so a pass allocates nothing.
	bounds     []int
	partEmbs   [][]*mat.Matrix
	partLabels [][]int
	payload    []int64 // transferred embedding bytes per call
	spill      []int64 // tiled only: modelled tile-flush traffic per call
	halo       []int64 // gathered boundary-activation bytes per call
	epc        []int64 // EPC charged at plan time
	ecalls     []func() error
	errs       []error
	ecIDs      []uint64
	vaults     []*Vault
	before     []enclave.Ledger
	parts      sync.WaitGroup // joins a round's parts
	watch      sync.WaitGroup // joins a pass's ctx watcher

	// Replan state for shard recovery: the per-part programs and machine
	// configs (including the calibrated scales, so a rebuilt machine
	// quantizes on the identical grid), the fp64 reference labels of the
	// calibration batch, and the plan config — everything rejoinShard
	// needs to rebuild one part's machine and re-prove agreement.
	progs     []*exec.Program
	mcfgs     []exec.Config
	refLabels []int
	planCfg   PlanConfig

	// inflight guards the workspace's single-pass-at-a-time contract and
	// lets Abort know whether a poison could still reach a live pass.
	inflight atomic.Bool

	labels   []int
	rec      obs.Recorder // never nil; obs.Nop when unconfigured
	released bool
}

// Plan builds a classic untiled inference workspace — the PlanConfig zero
// value — for batches of rows nodes. See PlanWith.
func (v *Vault) Plan(rows int) (*Workspace, error) {
	return v.PlanWith(rows, PlanConfig{})
}

// PlanWith builds a reusable inference workspace for batches of rows nodes
// (rows must equal the deployed graph's node count — GNN inference is
// full-graph): the one-part case of the fleet planner. The enclave is
// charged once, here: an untiled plan charges the rectifier's full scratch
// plus the transferred-embedding residency; a plan with an EPC budget (or
// explicit tile height) charges only its staging tile, streaming
// everything else through untrusted memory. PlanWith fails with
// enclave.ErrEPCExhausted wrapped if the working set does not fit — which
// for untiled plans bounds how many concurrent workspaces one enclave can
// serve, and for tiled plans essentially never happens. Every conv kind
// (GCN, GraphSAGE, GAT) plans in every mode: a plan is refused for a
// resource reason or, at int8, a measured accuracy one, never for its
// architecture.
func (v *Vault) PlanWith(rows int, cfg PlanConfig) (*Workspace, error) {
	return planFull(v, nil, rows, cfg)
}

// planFull is the one full-graph planner. It plans one part per shard of
// part, or — part nil — one part over the rectifier's own adjacency. It
// validates, compiles one rectifier program per part (with halo slots
// only when the partition has halo columns), plans the backbone once,
// calibrates a reduced tier once against the unsharded program and maps
// its scales onto every part's value table, couples the part machines
// into a fleet, holds a reduced fleet to the fp64 reference on the
// calibration batch, and charges every part's enclave, rolling back on
// failure.
func planFull(owner fleetOwner, part *graph.Partition, rows int, cfg PlanConfig) (*Workspace, error) {
	bounds := []int{0, rows}
	if part != nil {
		bounds = part.Bounds
	}
	parts := len(bounds) - 1
	vaults := make([]*Vault, parts)
	for s := range vaults {
		vaults[s] = owner.part(s)
		if vaults[s].undeployed.Load() {
			return nil, fmt.Errorf("core: plan on undeployed vault")
		}
	}
	v0 := vaults[0]
	if n := v0.privateGraph.N(); rows != n {
		return nil, fmt.Errorf("core: plan rows %d != deployed graph nodes %d", rows, n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	elem := cfg.Precision.Elem()
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.Nop
	}

	// Part programs: identical lowering everywhere (the fleet checks),
	// with a halo gather between each conv's MatMul and SpMM whenever the
	// partition has boundary columns at all — parts whose own halo is
	// empty still emit the op, as a barrier the peers' gathers rely on.
	progs := make([]*exec.Program, parts)
	for s := range progs {
		if part == nil {
			progs[s] = v0.rectifier.compileRectifier(rows, nil, nil)
			continue
		}
		var hs []exec.HaloSlot
		if part.HaloCols() > 0 {
			hs = exec.HaloSlots(part.Bounds, part.Halo[s])
		}
		progs[s] = v0.rectifier.compileRectifier(part.Rows(s), part.CSR[s], hs)
	}

	// Backbone first: reduced plans calibrate their scales and agreement
	// against its fp64 embeddings before the enclave machines exist — once,
	// against the unsharded reference program (the one part's own program
	// when there is no partition), the scale grid every part must share.
	needed := v0.rectifier.RequiredEmbeddings()
	bbMach, blocks, err := v0.Backbone.planBackbone(rows, nil, needed, exec.Config{Workers: cfg.Workers, Recorder: rec})
	if err != nil {
		return nil, fmt.Errorf("core: compiling backbone plan: %w", err)
	}
	own := selectEmbeddings(blocks, needed)
	var baseScales [][]float64
	var refLabels []int
	reg := owner.reg()
	if elem != exec.F64 {
		ref := progs[0]
		if part != nil {
			ref = v0.rectifier.compileRectifier(rows, nil, nil)
		}
		if baseScales, refLabels, _, err = calibrateReduced(reg, ref, bbMach, own, cfg); err != nil {
			return nil, err
		}
	}

	machines := make([]*exec.Machine, parts)
	mcfgs := make([]exec.Config, parts)
	for s := range machines {
		mcfg := exec.Config{Workers: 1, Elem: elem, Recorder: rec} // in-enclave: the ECALL's one thread
		if cfg.tiled() {
			mcfg.TileRows = deriveTileRows(cfg, progs[s].MaxWidth(), bounds[s+1]-bounds[s], cfg.Precision.ElemBytes())
		}
		if elem != exec.F64 {
			// Halo values copy their source's grid.
			if mcfg.Scales, err = exec.ShardScales(progs[s], baseScales); err != nil {
				return nil, fmt.Errorf("core: part %d scales: %w", s, err)
			}
		}
		mcfgs[s] = mcfg
		if machines[s], err = progs[s].NewMachine(mcfg); err != nil {
			return nil, fmt.Errorf("core: compiling inference plan (part %d): %w", s, err)
		}
	}
	fleet, err := exec.NewFleet(machines)
	if err != nil {
		return nil, fmt.Errorf("core: assembling fleet: %w", err)
	}

	ws := &Workspace{
		Rows:       rows,
		owner:      owner,
		bbMach:     bbMach,
		bbIn:       make([]*mat.Matrix, 1),
		own:        own,
		fleet:      fleet,
		bounds:     bounds,
		partEmbs:   make([][]*mat.Matrix, parts),
		partLabels: make([][]int, parts),
		payload:    make([]int64, parts),
		spill:      make([]int64, parts),
		halo:       make([]int64, parts),
		epc:        make([]int64, parts),
		ecalls:     make([]func() error, parts),
		errs:       make([]error, parts),
		ecIDs:      make([]uint64, parts),
		vaults:     vaults,
		before:     make([]enclave.Ledger, parts),
		progs:      progs,
		mcfgs:      mcfgs,
		refLabels:  refLabels,
		planCfg:    cfg,
		labels:     make([]int, rows),
		rec:        rec,
	}
	for s := 0; s < parts; s++ {
		lo, hi := bounds[s], bounds[s+1]
		local := hi - lo
		ws.partEmbs[s] = make([]*mat.Matrix, len(needed))
		for k := range ws.partEmbs[s] {
			ws.partEmbs[s][k] = &mat.Matrix{}
		}
		ws.partLabels[s] = ws.labels[lo:hi:hi]
		for _, i := range needed {
			ws.payload[s] += int64(v0.Backbone.BlockDims[i]) * int64(local) * cfg.Precision.ElemBytes()
		}
		m := machines[s]
		ws.halo[s] = m.HaloBytes()
		if m.TileRows() > 0 {
			// Tiled: only the staging tile and the attention scratch row
			// are enclave-resident; activations and embeddings — including
			// halo extension rows — stream through sealed spill buffers.
			// The per-call flush traffic is charged as boundary transfer.
			ws.epc[s] = m.TileBytes()
			ws.spill[s] = m.SpillTraffic(local)
		} else {
			ws.epc[s] = m.BufferBytes() + ws.payload[s]
		}
		// Pre-bound ECALL body: everything it touches lives in ws, so the
		// hot path never materialises a new closure.
		ws.ecalls[s] = func() error {
			_, err := ws.fleet.RunShard(s, local, ws.partEmbs[s], ws.partLabels[s])
			return err
		}
	}

	// Admission gate for reduced tiers: the actual fleet (tiled or direct)
	// must reproduce the fp64 reference labels on the calibration batch.
	if elem != exec.F64 {
		if err := ws.agree(reg); err != nil {
			return nil, err
		}
	}

	for s, v := range vaults {
		if err := v.Enclave.Alloc(ws.epc[s]); err != nil {
			for t := 0; t < s; t++ {
				vaults[t].Enclave.Free(ws.epc[t])
			}
			return nil, fmt.Errorf("core: inference workspace (part %d) does not fit EPC: %w", s, err)
		}
	}
	return ws, nil
}

// cacheTileBytes caps a budget-derived staging tile at a size that stays
// resident in a last-level cache slice: beyond this, taller tiles buy no
// fewer kernel calls per row but push the staging buffer (and its flush)
// out to DRAM, measurably slowing the stream. Explicit TileRows requests
// are honoured uncapped.
const cacheTileBytes = 2 << 20

// deriveTileRows maps a plan config to a tile height: an explicit TileRows
// wins; otherwise the EPC budget buys budget/(elemBytes·maxWidth) rows of
// the widest program value, so a narrower element type buys
// proportionally taller tiles (int8 tiles hold 8× the rows of fp64 ones
// for the same budget). Budget-derived heights are additionally capped at
// a cache-resident staging size (taller tiles are measurably slower, not
// just pointless), and the result is clamped to [1, rows] — a budget too
// small for even one row still plans, charging its actual (minimal) tile.
func deriveTileRows(cfg PlanConfig, maxWidth, rows int, elemBytes int64) int {
	t := cfg.TileRows
	if t <= 0 {
		t = int(cfg.EPCBudgetBytes / (elemBytes * int64(maxWidth)))
		if lim := int(cacheTileBytes / (elemBytes * int64(maxWidth))); t > lim {
			t = lim
		}
	}
	if t < 1 {
		t = 1
	}
	if t > rows {
		t = rows
	}
	return t
}

// EnclaveBytes returns the EPC charged for this workspace at plan time,
// summed over its parts' enclaves.
func (ws *Workspace) EnclaveBytes() int64 { return sum(ws.epc) }

// ShardEnclaveBytes returns the EPC charged to part s's enclave.
func (ws *Workspace) ShardEnclaveBytes(s int) int64 { return ws.epc[s] }

// TileRows returns part 0's tile height (0 for untiled plans); every part
// derives its own from its row count.
func (ws *Workspace) TileRows() int { return ws.fleet.Machine(0).TileRows() }

// SpillBytes returns the modelled per-call tile-flush traffic the plan
// charges to the ECALL transfer payloads, summed over parts (0 for untiled
// plans). Fusion shrinks it: folded chains flush once instead of once per
// element-wise op.
func (ws *Workspace) SpillBytes() int64 { return sum(ws.spill) }

// PayloadBytes returns the modelled per-call ECALL embedding payload: the
// backbone blocks the rectifier consumes, priced at the plan's element
// width and summed over parts — each part receives exactly its own rows of
// each block, so a sharded plan's total matches the unsharded plan's.
func (ws *Workspace) PayloadBytes() int64 { return sum(ws.payload) }

// HaloBytes returns the boundary-activation bytes one inference exchanges
// across the fleet — the per-call halo traffic priced into the part
// ECALL payloads and surfaced on /metrics; 0 for a one-part plan.
func (ws *Workspace) HaloBytes() int64 { return sum(ws.halo) }

// ShardHaloBytes returns part s's gathered halo bytes per call.
func (ws *Workspace) ShardHaloBytes(s int) int64 { return ws.halo[s] }

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

// Release returns every part's workspace EPC — on each part's current
// vault, so after a shard recovery the charge leaves the replacement
// enclave. The workspace must not be used afterwards. Idempotent.
func (ws *Workspace) Release() {
	if ws.released {
		return
	}
	ws.released = true
	for s := range ws.epc {
		ws.fleet.Machine(s).SetInputEpoch(nil) // drop the store record the part's codes were keyed on
		ws.owner.part(s).Enclave.Free(ws.epc[s])
	}
}

// Abort poisons any pass currently in flight on this workspace with the
// given cause: every part unwinds at its next fleet barrier and the pass
// returns an error wrapping the cause instead of hanging — the hook the
// serving layer uses when a shard is administratively pulled or a
// deadline expires from outside. Aborting an idle workspace is a no-op,
// and a pass already past its last barrier may still complete
// successfully; the contract is "clean error or clean success, never a
// hung barrier".
func (ws *Workspace) Abort(cause error) {
	if ws.inflight.Load() {
		ws.fleet.Abort(cause)
	}
}

// bindParts rebinds every part's embedding views onto its rows of embs, a
// round's full-height block embeddings in RequiredEmbeddings order, and
// declares to every part machine whether they are reg's stored blocks
// (registration.declareInputs: a part's rows of the store are as
// immutable as the whole) — called every round, and zero-alloc: the view
// headers are planned once.
func (ws *Workspace) bindParts(embs []*mat.Matrix, reg *registration, reused bool) {
	for s, views := range ws.partEmbs {
		for k, m := range embs {
			m.ViewRows(ws.bounds[s], ws.bounds[s+1], views[k])
		}
		reg.declareInputs(ws.fleet.Machine(s), reused)
	}
}

// agree is the reduced tiers' admission gate, at plan time and again when
// a recovered shard rejoins: one unaccounted fleet round over the
// backbone's embeddings of the registered features, whose labels must
// reach the configured agreement with the fp64 reference. The part
// machines are left holding the store's boundary codes, declared as such,
// so the first registered-features pass skips its quantisation too.
func (ws *Workspace) agree(reg *registration) error {
	embs, reused := reg.embeddings(reg.x, ws.bbMach, ws.bbIn, ws.own)
	ws.bindParts(embs, reg, reused)
	if err := ws.fanOut(context.Background(), false, 0); err != nil {
		return fmt.Errorf("core: calibration fleet round: %w", err)
	}
	return agreementFloor(ws.labels, ws.refLabels, ws.planCfg)
}

// fanOut runs one fleet round over the bound part inputs into the
// workspace's labels. Part 0 runs on the calling goroutine and parts
// 1…n−1 on one goroutine each — every part must reach the fleet barriers
// for any to pass them. In a pass, each part is one ECALL on its
// snapshotted enclave carrying the part's payload, spill and halo in and
// resultWidth bytes per row out; plan-time and recovery rounds run the
// bodies outside any enclave accounting. A watcher poisons the fleet when
// ctx expires — started only for a ctx that can — and a part whose ECALL
// fails at the enclave gate poisons it too, since its peers would
// otherwise wait forever on a barrier it never reaches. Returns
// firstFault.
func (ws *Workspace) fanOut(ctx context.Context, pass bool, resultWidth int64) error {
	var quit chan struct{}
	if done := ctx.Done(); done != nil {
		quit = make(chan struct{})
		ws.watch.Add(1)
		go ws.watchCtx(ctx, quit)
	}
	ws.parts.Add(len(ws.errs))
	for s := 1; s < len(ws.errs); s++ {
		go ws.runPart(s, pass, resultWidth)
	}
	ws.runPart(0, pass, resultWidth)
	ws.parts.Wait()
	if quit != nil {
		close(quit)
		ws.watch.Wait()
	}
	// Re-arm the barrier for the next round whether or not this one was
	// poisoned; every RunShard of this round has returned.
	ws.fleet.Reset()
	return ws.firstFault()
}

// watchCtx aborts the fleet when ctx ends before quit closes.
func (ws *Workspace) watchCtx(ctx context.Context, quit chan struct{}) {
	defer ws.watch.Done()
	select {
	case <-ctx.Done():
		ws.fleet.Abort(ctx.Err())
	case <-quit:
	}
}

// runPart runs part s's share of a fanOut round and records its error.
func (ws *Workspace) runPart(s int, pass bool, resultWidth int64) {
	defer ws.parts.Done()
	var err error
	if pass {
		err = ws.vaults[s].Enclave.Ecall(ws.payload[s]+ws.spill[s]+ws.halo[s], int64(len(ws.partLabels[s]))*resultWidth, ws.ecalls[s])
	} else {
		err = ws.ecalls[s]()
	}
	if err != nil && !errors.Is(err, exec.ErrFleetAborted) {
		ws.fleet.Abort(&ShardFault{Shard: s, Err: err})
	}
	ws.errs[s] = err
}

// firstFault selects the error a failed round returns. A part that
// failed for its own reason — not merely the poisoned barrier — is the
// culprit and is reported as a *ShardFault; otherwise the first echo
// error is returned (it wraps the abort cause, so errors.Is still sees
// the context error or the culprit's ShardFault through it). Nil when
// every part succeeded.
func (ws *Workspace) firstFault() error {
	var echo error
	for s, err := range ws.errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, exec.ErrFleetAborted) {
			return &ShardFault{Shard: s, Err: err}
		}
		if echo == nil {
			echo = fmt.Errorf("core: inference: %w", err)
		}
	}
	return echo
}

// PredictInto is Predict over a planned workspace: backbone forward in the
// normal world, one modelled ECALL carrying exactly the embeddings the
// design requires, rectification and label reduction inside the enclave —
// all into pre-sized buffers, with zero steady-state heap allocation.
// Tiled plans additionally charge their activation spill traffic to the
// ECALL's transfer payload, so the latency cost of streaming shows up in
// the modelled breakdown.
//
// When x is the vault's registered feature matrix (SetCalibrationFeatures;
// pointer identity), the backbone runs only on the first such pass: it
// publishes its embeddings into the vault's public-half store and later
// passes read them (InferenceBreakdown.BackboneReused). The ECALL carries
// the same payload into the same machine either way, and answers are
// bit-identical. Any other x runs the backbone as always.
//
// The returned label slice is owned by the workspace and overwritten by the
// next call. The breakdown is computed from enclave-ledger deltas; when
// several workspaces share one enclave concurrently, the wall-clock fields
// remain exact but the modelled enclave components may interleave. An
// enclave failure comes back as a *ShardFault naming part 0, wrapping the
// enclave's error.
func (v *Vault) PredictInto(x *mat.Matrix, ws *Workspace) ([]int, InferenceBreakdown, error) {
	labels, _, bd, err := ws.predict(context.Background(), v, x, false)
	return labels, bd, err
}

// PredictScoresInto is PredictInto for deployments that expose per-class
// scores: the rectified logits cross the boundary alongside the labels,
// priced into the ECALL result payload at classes × 8 extra bytes per
// node. This is the deliberately weakened output mode the privacy
// harness (internal/privharness) attacks — the paper's label-only rule
// (Sec. IV-E) corresponds to never calling it. The returned matrix is the
// plan machine's output view: machine-owned, overwritten by the next
// call, so serving code must copy what it sends out.
func (v *Vault) PredictScoresInto(x *mat.Matrix, ws *Workspace) (*mat.Matrix, []int, InferenceBreakdown, error) {
	labels, scores, bd, err := ws.predict(context.Background(), v, x, true)
	return scores, labels, bd, err
}

// predict is the one full-graph pass body, behind every PredictInto: the
// backbone once at full height in the normal world (or the public-half
// store's blocks), then one modelled ECALL per part (fanOut), then the
// breakdown — counts summed over parts, modelled times from the slowest
// part (the parts run in parallel), PeakEPCBytes from the busiest enclave
// (each part has its own EPC). With wantScores the logits of part 0 — a
// Vault plan's only part — are returned and priced too.
func (ws *Workspace) predict(ctx context.Context, owner fleetOwner, x *mat.Matrix, wantScores bool) ([]int, *mat.Matrix, InferenceBreakdown, error) {
	var bd InferenceBreakdown
	switch {
	case ws.released:
		return nil, nil, bd, fmt.Errorf("core: PredictInto on released workspace")
	case ws.owner != owner:
		return nil, nil, bd, fmt.Errorf("core: workspace planned for a different vault")
	case x == nil:
		return nil, nil, bd, fmt.Errorf("core: nil input features")
	case x.Rows != ws.Rows:
		return nil, nil, bd, fmt.Errorf("core: input rows %d != planned rows %d", x.Rows, ws.Rows)
	case x.Cols != ws.vaults[0].Backbone.FeatureDim:
		return nil, nil, bd, fmt.Errorf("core: input features %d != backbone feature dim %d", x.Cols, ws.vaults[0].Backbone.FeatureDim)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, bd, fmt.Errorf("core: inference: %w", err)
	}
	if !ws.inflight.CompareAndSwap(false, true) {
		return nil, nil, bd, fmt.Errorf("core: workspace already has a pass in flight")
	}
	defer ws.inflight.Store(false)
	// An Abort that landed while the workspace was idle left the barrier
	// poisoned with a stale cause; re-arm before the pass begins.
	ws.fleet.Reset()
	for s := range ws.vaults {
		v := owner.part(s)
		ws.vaults[s] = v
		ws.before[s] = v.Enclave.Ledger()
		v.Enclave.ResetPeak()
	}

	// Flight recorder: one trace per call — a query root, the backbone
	// stage, and one ECALL span per part; the machines attach their per-op
	// spans to those stages. All probe state is scalar, so an enabled
	// recorder costs a handful of clock reads and ring writes and the
	// disabled one a predictable branch — either way 0 allocs/op.
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

	// Normal world: the fused backbone program into machine buffers — or,
	// for the registered features once a pass has published them, the
	// public-half store's blocks and no backbone op at all.
	start := time.Now()
	reg := owner.reg()
	embs, reused := reg.embeddings(x, ws.bbMach, ws.bbIn, ws.own)
	bd.BackboneTime, bd.BackboneReused = time.Since(start), reused
	if recOn {
		stageStart = recordBackbone(rec, trace, bbID, stageStart, ws.Rows, bd)
	}

	// One-way transfer of exactly the embeddings the design requires, one
	// modelled ECALL per part (untiled plans hold the buffers EPC-resident
	// since plan time; tiled plans stream them, plus the tile flushes,
	// through the boundary). By default only the labels cross back — 8
	// bytes per node; a scores call pays for the logits too.
	ws.bindParts(embs, reg, reused)
	resultWidth := int64(8)
	if wantScores {
		resultWidth += int64(ws.fleet.Machine(0).OutputWidth()) * 8
	}
	if err := ws.fanOut(ctx, true, resultWidth); err != nil {
		return nil, nil, bd, err
	}
	if recOn {
		now := rec.Clock()
		for s, id := range ws.ecIDs {
			rows := int64(len(ws.partLabels[s]))
			rec.Record(obs.Span{Trace: trace, ID: id, Parent: trace, Kind: obs.SpanECall,
				Rows: int32(rows), Bytes: ws.payload[s] + ws.spill[s] + ws.halo[s] + rows*resultWidth,
				Start: stageStart, Dur: now - stageStart})
		}
		rec.Record(obs.Span{Trace: trace, ID: trace, Kind: obs.SpanQuery,
			Rows: int32(ws.Rows), Start: qStart, Dur: now - qStart})
	}

	for s, v := range ws.vaults {
		bd.addPart(ws.before[s], v.Enclave.Ledger())
	}
	var scores *mat.Matrix
	if wantScores {
		scores = ws.fleet.Machine(0).Output()
	}
	return ws.labels, scores, bd, nil
}

// recordBackbone records a full-graph pass's backbone stage span and
// returns the clock the next stage starts at. The span's duration is the
// breakdown's BackboneTime — one pair of clock reads behind both, so the
// two can never disagree, however short the stage — and Rows is the rows
// computed: 0 marks a pass that reused the public-half store, which also
// has no op spans beneath it.
func recordBackbone(rec obs.Recorder, trace, id uint64, start int64, rows int, bd InferenceBreakdown) int64 {
	if bd.BackboneReused {
		rows = 0
	}
	rec.Record(obs.Span{Trace: trace, ID: id, Parent: trace, Kind: obs.SpanBackbone,
		Rows: int32(rows), Start: start, Dur: int64(bd.BackboneTime)})
	return rec.Clock()
}

// Nodes returns the node count of the deployed private graph — the batch
// height every inference over this vault uses.
func (v *Vault) Nodes() int { return v.privateGraph.N() }
