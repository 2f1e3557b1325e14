package core

import (
	"fmt"
	"time"

	"gnnvault/internal/exec"
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
// enclave thread its ECALL entered on; the multi-thread enclave path is
// the shard fleet (shardplan.go), one ECALL per shard.
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

// Workspace is a full inference plan for one vault: the compiled backbone
// machine in the normal world, the compiled rectifier machine charged
// against the EPC (wholly, or tiles-only under a budget), the label output
// buffer, and the pre-bound ECALL body. Both halves run fused programs on
// the shared exec engine. A Workspace belongs to one goroutine at a time;
// a serving fleet plans one per worker.
type Workspace struct {
	Rows int

	v       *Vault
	bbMach  *exec.Machine // backbone program, normal world
	bbIn    []*mat.Matrix // reused single-input list for bbMach.Run
	own     []*mat.Matrix // bbMach's stable views of the RequiredEmbeddings blocks, in that order
	mach    *exec.Machine // rectifier program, in-enclave
	embs    []*mat.Matrix // this call's ECALL inputs: own, or the public-half store's blocks
	labels  []int
	payload int64 // transferred embedding bytes per call
	spill   int64 // tiled only: modelled tile-flush traffic per call
	epc     int64 // EPC charged at plan time
	ecall   func() error
	rec     obs.Recorder // never nil; obs.Nop when unconfigured

	released bool
}

// Plan builds a classic untiled inference workspace — the PlanConfig zero
// value — for batches of rows nodes. See PlanWith.
func (v *Vault) Plan(rows int) (*Workspace, error) {
	return v.PlanWith(rows, PlanConfig{})
}

// PlanWith builds a reusable inference workspace for batches of rows nodes
// (rows must equal the deployed graph's node count — GNN inference is
// full-graph). The enclave is charged once, here: an untiled plan charges
// the rectifier's full scratch plus the transferred-embedding residency; a
// plan with an EPC budget (or explicit tile height) charges only its
// staging tile, streaming everything else through untrusted memory.
// PlanWith fails with enclave.ErrEPCExhausted wrapped if the working set
// does not fit — which for untiled plans bounds how many concurrent
// workspaces one enclave can serve, and for tiled plans essentially never
// happens. Every conv kind (GCN, GraphSAGE, GAT) plans in every mode: a
// plan is refused for a resource reason or, at int8, a measured accuracy
// one, never for its architecture.
func (v *Vault) PlanWith(rows int, cfg PlanConfig) (*Workspace, error) {
	if v.undeployed.Load() {
		return nil, fmt.Errorf("core: plan on undeployed vault")
	}
	if n := v.privateGraph.N(); rows != n {
		return nil, fmt.Errorf("core: plan rows %d != deployed graph nodes %d", rows, n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	elem := cfg.Precision.Elem()
	prog := v.rectifier.compileRectifier(rows, nil, nil)
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.Nop
	}
	machCfg := exec.Config{Workers: 1, Elem: elem, Recorder: rec} // in-enclave: the ECALL's one thread
	if cfg.tiled() {
		machCfg.TileRows = deriveTileRows(cfg, prog.MaxWidth(), rows, cfg.Precision.ElemBytes())
	}
	// Backbone first: reduced plans calibrate their scales and agreement
	// against its fp64 embeddings before the enclave machine exists.
	needed := v.rectifier.RequiredEmbeddings()
	bbMach, blocks, err := v.Backbone.planBackbone(rows, nil, needed, exec.Config{Workers: cfg.Workers, Recorder: rec})
	if err != nil {
		return nil, fmt.Errorf("core: compiling backbone plan: %w", err)
	}
	own := selectEmbeddings(blocks, needed)
	var refLabels []int
	var calibEmbs []*mat.Matrix
	reg := v.features.Load()
	if elem != exec.F64 {
		if machCfg.Scales, refLabels, calibEmbs, err = calibrateReduced(reg, prog, bbMach, own, cfg); err != nil {
			return nil, err
		}
	}
	mach, err := prog.NewMachine(machCfg)
	if err != nil {
		return nil, fmt.Errorf("core: compiling inference plan: %w", err)
	}
	if elem != exec.F64 {
		// Admission gate: the actual plan machine (tiled or direct) must
		// reproduce the fp64 reference labels on the calibration batch.
		if err := checkAgreement(mach, reg, calibEmbs, refLabels, cfg); err != nil {
			return nil, err
		}
	}
	ws := &Workspace{
		Rows:   rows,
		v:      v,
		bbMach: bbMach,
		bbIn:   make([]*mat.Matrix, 1),
		own:    own,
		mach:   mach,
		labels: make([]int, rows),
		rec:    rec,
	}
	for _, i := range needed {
		ws.payload += int64(v.Backbone.BlockDims[i]) * int64(rows) * cfg.Precision.ElemBytes()
	}
	if machCfg.TileRows > 0 {
		// Tiled: only the staging tile and the attention scratch row are
		// enclave-resident; activations and embeddings stream. The
		// per-call flush traffic is charged as boundary transfer instead.
		ws.epc = mach.TileBytes()
		ws.spill = mach.SpillTraffic(rows)
	} else {
		ws.epc = mach.BufferBytes() + ws.payload
	}
	if err := v.Enclave.Alloc(ws.epc); err != nil {
		return nil, fmt.Errorf("core: inference workspace does not fit EPC: %w", err)
	}
	// Pre-bound ECALL body: everything it touches lives in ws, so the hot
	// path never materialises a new closure.
	ws.ecall = func() error {
		ws.mach.Run(ws.Rows, ws.embs, ws.labels)
		return nil
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

// EnclaveBytes returns the EPC charged for this workspace at plan time.
func (ws *Workspace) EnclaveBytes() int64 { return ws.epc }

// TileRows returns the plan's tile height (0 for untiled plans).
func (ws *Workspace) TileRows() int { return ws.mach.TileRows() }

// SpillBytes returns the modelled per-call tile-flush traffic the plan
// charges to the ECALL transfer payload (0 for untiled plans). Fusion
// shrinks it: folded chains flush once instead of once per element-wise
// op.
func (ws *Workspace) SpillBytes() int64 { return ws.spill }

// PayloadBytes returns the modelled per-call ECALL embedding payload: the
// backbone blocks the rectifier consumes, priced at the plan's element
// width — a reduced-precision plan carries proportionally smaller
// payloads across the boundary.
func (ws *Workspace) PayloadBytes() int64 { return ws.payload }

// Release returns the workspace's EPC to the enclave. The workspace must
// not be used afterwards.
func (ws *Workspace) Release() {
	if ws.released {
		return
	}
	ws.released = true
	ws.mach.SetInputEpoch(nil) // drop the store record the machine's codes were keyed on
	ws.v.Enclave.Free(ws.epc)
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
// remain exact but the modelled enclave components may interleave.
func (v *Vault) PredictInto(x *mat.Matrix, ws *Workspace) ([]int, InferenceBreakdown, error) {
	labels, _, bd, err := v.predictInto(x, ws, false)
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
	labels, scores, bd, err := v.predictInto(x, ws, true)
	return scores, labels, bd, err
}

func (v *Vault) predictInto(x *mat.Matrix, ws *Workspace, wantScores bool) ([]int, *mat.Matrix, InferenceBreakdown, error) {
	var bd InferenceBreakdown
	if ws.released {
		return nil, nil, bd, fmt.Errorf("core: PredictInto on released workspace")
	}
	if ws.v != v {
		return nil, nil, bd, fmt.Errorf("core: workspace planned for a different vault")
	}
	if x == nil {
		return nil, nil, bd, fmt.Errorf("core: nil input features")
	}
	if x.Rows != ws.Rows {
		return nil, nil, bd, fmt.Errorf("core: input rows %d != planned rows %d", x.Rows, ws.Rows)
	}
	if x.Cols != v.Backbone.FeatureDim {
		return nil, nil, bd, fmt.Errorf("core: input features %d != backbone feature dim %d", x.Cols, v.Backbone.FeatureDim)
	}
	before := v.Enclave.Ledger()
	v.Enclave.ResetPeak()

	// Flight recorder: one trace per call — a query root with backbone
	// and ECALL stage spans beneath it; the machines attach their per-op
	// spans to those stages. All probe state is scalar, so an enabled
	// recorder costs a handful of clock reads and ring writes and the
	// disabled one a predictable branch — either way 0 allocs/op.
	rec := ws.rec
	recOn := rec.Enabled()
	var trace, bbID, ecID uint64
	var qStart, stageStart int64
	if recOn {
		trace = rec.NewSpan()
		bbID = rec.NewSpan()
		ecID = rec.NewSpan()
		ws.bbMach.SetTrace(trace, bbID)
		ws.mach.SetTrace(trace, ecID)
		qStart = rec.Clock()
		stageStart = qStart
	}

	// Normal world: the fused backbone program into machine buffers — or,
	// for the registered features once a pass has published them, the
	// public-half store's blocks and no backbone op at all.
	start := time.Now()
	reg := v.features.Load()
	ws.embs, bd.BackboneReused = reg.embeddings(x, ws.bbMach, ws.bbIn, ws.own)
	reg.declareInputs(ws.mach, bd.BackboneReused)
	bd.BackboneTime = time.Since(start)
	if recOn {
		stageStart = recordBackbone(rec, trace, bbID, stageStart, ws.Rows, bd)
	}

	// One-way transfer of exactly the embeddings the design requires,
	// modelled as a single ECALL (for untiled plans the buffers are
	// EPC-resident since plan time; tiled plans stream them, plus the
	// tile flushes, through the boundary). By default only the labels
	// cross back — 8 bytes per node; a scores call pays for the logits
	// too.
	resultBytes := int64(ws.Rows) * 8
	if wantScores {
		resultBytes += int64(ws.Rows) * int64(ws.mach.OutputWidth()) * 8
	}
	if err := v.Enclave.Ecall(ws.payload+ws.spill, resultBytes, ws.ecall); err != nil {
		return nil, nil, bd, fmt.Errorf("core: enclave inference: %w", err)
	}
	if recOn {
		now := rec.Clock()
		rec.Record(obs.Span{Trace: trace, ID: ecID, Parent: trace, Kind: obs.SpanECall,
			Rows: int32(ws.Rows), Bytes: ws.payload + ws.spill + resultBytes,
			Start: stageStart, Dur: now - stageStart})
		rec.Record(obs.Span{Trace: trace, ID: trace, Kind: obs.SpanQuery,
			Rows: int32(ws.Rows), Start: qStart, Dur: now - qStart})
	}

	fillBreakdown(&bd, before, v.Enclave.Ledger())
	var scores *mat.Matrix
	if wantScores {
		scores = ws.mach.Output()
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
