package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gnnvault/internal/exec"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
	"gnnvault/internal/obs"
	"gnnvault/internal/subgraph"
)

// Subgraph inference plans. Full-graph inference (Plan/PredictInto) costs
// O(graph) per query regardless of how few labels the caller wants; a
// node-level query only needs the seeds' L-hop receptive field. A
// SubgraphWorkspace answers such queries from a sampled induced subgraph:
//
//   - the L-hop frontier is expanded over the *public* substitute
//     adjacency in the normal world, so the extracted node set reveals
//     nothing the untrusted side did not already hold (seeds are the
//     query; the substitute graph is public by construction);
//   - the backbone runs on the induced substitute sub-CSR over the
//     gathered feature rows, normal-world parallel kernels;
//   - inside the enclave, the *private* adjacency is induced over the
//     same (public) node set and the rectifier runs on that sub-CSR with
//     single-threaded kernels — private edges never influence which
//     nodes are extracted, only how their embeddings are recalibrated.
//
// Both forward passes execute on the shared internal/exec engine: at plan
// time the backbone and rectifier are compiled once against the induced
// sub-CSR headers (which Induce re-fills in place per query), so a
// subgraph plan is just a small-n direct instance of the same programs the
// full-graph path runs — the per-design wiring lives in one compiler
// (lower.go), not here.
//
// Accuracy is approximate: receptive fields are truncated at Hops and
// sampled at Fanout (see DESIGN.md). Exact-GCN semantics remain available
// through the full-graph path, which PredictNodesInto falls back to when
// the frontier covers most of the graph anyway.

// ErrNodeOutOfRange is returned for query seeds outside the deployed
// graph's node range. It is a named error (not a formatted one) so the
// hot serving loop never pays a fmt on validation.
var ErrNodeOutOfRange = errors.New("core: query node out of range")

// ErrSubgraphUnsupported is returned by PlanSubgraph for deployments the
// subgraph engine cannot serve: DNN backbones (no public graph to expand
// over) and non-GCN convolutions (per-query induction re-creates GCN's
// operator only, on both the public and the private side).
var ErrSubgraphUnsupported = errors.New("core: deployment not servable via subgraph engine")

// viewRows re-slices a cap-rows workspace buffer to its first rows rows.
// The backing array is untouched, so later calls can view more rows again
// without allocating.
func viewRows(m *mat.Matrix, rows int) *mat.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// SubgraphWorkspace is a planned node-query pipeline for one vault:
// expansion state and the induced substitute CSR in the normal world,
// the induced private CSR plus the rectifier machine's buffers charged
// against the EPC, and the pre-bound ECALL body. Like Workspace, it
// belongs to one goroutine at a time; a serving fleet plans one per
// worker.
type SubgraphWorkspace struct {
	v    *Vault
	plan subgraph.Plan

	exp    *subgraph.Workspace
	pubCS  *subgraph.CSRSpace // induced substitute operator (normal world)
	privCS *subgraph.CSRSpace // induced private operator (enclave)

	feat   *mat.Matrix   // gathered feature rows, CapNodes×d backing
	featIn []*mat.Matrix // pre-bound backbone input list ({feat})
	bbMach *exec.Machine // backbone program over the induced public CSR
	blocks []*mat.Matrix // stable views of the backbone block values

	rectMach *exec.Machine // rectifier program over the induced private CSR
	needed   []int
	embs     []*mat.Matrix

	labels []int // per-extracted-node labels; seeds occupy [0:numSeeds]

	curRows  int // extracted nodes of the in-flight query
	curSeeds int
	payload  int64 // per-row transferred embedding bytes
	epc      int64 // EPC charged at plan time
	ecall    func() error

	// Flight-recorder state. rec is never nil (obs.Nop default);
	// curTrace/curECall carry the in-flight query's trace and ECALL span
	// IDs into the pre-bound ECALL body, which records the private-side
	// induction span under them.
	rec      obs.Recorder
	curTrace uint64
	curECall uint64

	released bool
}

// PlanSubgraph builds a reusable node-query workspace for seed batches of
// up to maxSeeds nodes. Every buffer is sized for the worst case the
// (Hops, Fanout, maxSeeds) geometry admits, and the enclave is charged
// once, here, for the private-side working set: the induced private CSR,
// the rectifier machine's buffers, the transferred embedding residency and
// the label buffer — all at CapNodes rows, which for realistic fanouts is
// orders of magnitude below the full-graph plan.
//
// PlanSubgraph fails with ErrSubgraphUnsupported for DNN backbones and
// non-GCN convolutions, and with enclave.ErrEPCExhausted (wrapped) when
// even the capped working set does not fit.
func (v *Vault) PlanSubgraph(maxSeeds int, cfg subgraph.Config) (*SubgraphWorkspace, error) {
	return v.PlanSubgraphWith(maxSeeds, cfg, PlanConfig{})
}

// PlanSubgraphWith is PlanSubgraph under a plan configuration: only the
// Precision, MinAgreement and Recorder fields apply (subgraph rectifier
// execution is direct, never tiled — the induced batch is already small).
// A reduced-precision subgraph plan is admitted on the registration's
// full-graph calibration, the one every int8 plan of the vault shares
// (int8Scales), and hands its scales to the per-query machine: both
// compile from the same lowering, so their value tables — and hence scale
// indices — align. Like PlanWith, int8 without registered calibration
// features fails with ErrCalibrationRequired.
func (v *Vault) PlanSubgraphWith(maxSeeds int, cfg subgraph.Config, pcfg PlanConfig) (*SubgraphWorkspace, error) {
	if v.undeployed.Load() {
		return nil, fmt.Errorf("core: subgraph plan on undeployed vault")
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	PlanKnobs.Defaults(&pcfg)
	if v.Backbone.adj == nil {
		return nil, fmt.Errorf("%w: DNN backbone has no public graph to expand over", ErrSubgraphUnsupported)
	}
	for _, l := range v.Backbone.Model.Layers {
		switch l.(type) {
		case *nn.GCNConv, *nn.Dense, *nn.ReLU, *nn.Dropout:
		default:
			return nil, fmt.Errorf("%w: backbone layer %T", ErrSubgraphUnsupported, l)
		}
	}
	for _, c := range v.rectifier.convs {
		if _, ok := c.(*nn.GCNConv); !ok {
			return nil, fmt.Errorf("%w: rectifier conv %T", ErrSubgraphUnsupported, c)
		}
	}

	n := v.op.N
	needed := v.rectifier.RequiredEmbeddings()
	elem := pcfg.Precision.Elem()
	rec := pcfg.Recorder
	rectCfg := exec.Config{Workers: 1, Elem: elem, Recorder: rec}
	if elem != exec.F64 {
		var err error
		if rectCfg.Scales, err = int8Scales(v, v.features.Load(), nil, nil, pcfg); err != nil {
			return nil, err
		}
	}
	plan := subgraph.NewPlan(cfg, maxSeeds, n)
	capRows := plan.CapNodes
	ws := &SubgraphWorkspace{
		v:      v,
		plan:   plan,
		exp:    plan.NewWorkspace(),
		pubCS:  plan.NewCSRSpace(v.Backbone.adj.NNZ()),
		privCS: plan.NewCSRSpace(v.op.NNZ()),
		feat:   mat.New(capRows, v.Backbone.FeatureDim),
		needed: needed,
		labels: make([]int, capRows),
		rec:    rec,
	}

	// Compile both halves against the induced sub-CSR headers: the header
	// pointers are stable, their contents are re-filled by Induce per
	// query. Both programs come out of the compiler epilogue-fused, with
	// block embeddings pinned. The backbone machine runs normal-world
	// (global worker default); the rectifier machine is in-enclave,
	// single-threaded.
	bbMach, blocks, err := v.Backbone.planBackbone(capRows, ws.pubCS.Sub(), needed, exec.Config{Recorder: rec})
	if err != nil {
		return nil, fmt.Errorf("core: compiling subgraph backbone: %w", err)
	}
	ws.bbMach, ws.blocks = bbMach, blocks
	ws.featIn = []*mat.Matrix{ws.feat}
	rectMach, err := v.rectifier.compileRectifier(capRows, ws.privCS.Sub(), nil).NewMachine(rectCfg)
	if err != nil {
		return nil, fmt.Errorf("core: compiling subgraph rectifier: %w", err)
	}
	ws.rectMach = rectMach
	ws.embs = make([]*mat.Matrix, 0, len(ws.needed))

	// EPC accounting: the enclave-resident share of the plan — induced
	// private CSR, rectifier machine buffers, transferred embeddings,
	// labels — charged once at the worst-case row count. Expansion state,
	// the substitute CSR and the backbone machine stay in the normal world
	// (the node set is public).
	for _, i := range ws.needed {
		ws.payload += int64(v.Backbone.BlockDims[i]) * pcfg.Precision.ElemBytes()
	}
	ws.epc = ws.privCS.NumBytes() + rectMach.BufferBytes() + ws.payload*int64(capRows) + int64(capRows)*8
	if err := v.Enclave.Alloc(ws.epc); err != nil {
		return nil, fmt.Errorf("core: subgraph workspace does not fit EPC: %w", err)
	}
	ws.ecall = ws.rectifyExtracted
	return ws, nil
}

// rectifyExtracted is the pre-bound ECALL body: induce the private
// operator over the (publicly expanded) node set — filling the sub-CSR
// header the rectifier program was compiled against — then run the
// machine, which reduces to labels. Everything it touches was planned; it
// never allocates.
func (ws *SubgraphWorkspace) rectifyExtracted() error {
	s := ws.curRows
	rec := ws.rec
	var t0 int64
	recOn := rec.Enabled()
	if recOn {
		t0 = rec.Clock()
	}
	if _, err := ws.exp.Induce(ws.v.op, ws.privCS); err != nil {
		return err
	}
	if recOn {
		rec.Record(obs.Span{Trace: ws.curTrace, Parent: ws.curECall, Kind: obs.SpanInducePrivate,
			Rows: int32(s), Start: t0, Dur: rec.Clock() - t0})
	}
	ws.rectMach.Run(s, ws.embs, ws.labels[:s])
	return nil
}

// EnclaveBytes returns the EPC charged for this workspace at plan time.
func (ws *SubgraphWorkspace) EnclaveBytes() int64 { return ws.epc }

// MaxSeeds returns the largest seed batch one query accepts.
func (ws *SubgraphWorkspace) MaxSeeds() int { return ws.plan.MaxSeeds }

// LastExtracted returns the node count of the most recent extraction —
// the effective batch height of the last query's forward pass.
func (ws *SubgraphWorkspace) LastExtracted() int { return ws.curRows }

// ExtractedNodes returns the global node ids of the most recent
// extraction, seeds first. The slice aliases workspace state and is
// overwritten by the next query. Sharded routing uses it to price the
// induced rows a shard enclave had to fetch from peers.
func (ws *SubgraphWorkspace) ExtractedNodes() []int { return ws.exp.Nodes() }

// Release returns the workspace's EPC to the enclave. The workspace must
// not be used afterwards. Idempotent.
func (ws *SubgraphWorkspace) Release() {
	if ws.released {
		return
	}
	ws.released = true
	ws.v.Enclave.Free(ws.epc)
}

// PredictNodesInto answers a node-level query from the sampled L-hop
// subgraph of the seeds: frontier expansion over the public substitute
// adjacency, the compiled backbone program on the induced substitute CSR,
// then one ECALL that induces the private adjacency over the same node set
// and runs the compiled rectifier program inside the enclave. x is the
// full public feature matrix; only the seeds' feature rows (and their
// extracted neighbourhoods') are touched.
//
// The returned slice holds one label per seed, aliases the workspace and
// is overwritten by the next call. Out-of-range seeds fail with
// ErrNodeOutOfRange before any work happens.
//
// When the expanded frontier covers ¾ of the graph or more, the sampled
// pass would cost full-graph money anyway, so the query falls back to the
// one-shot Vault.Predict — the subgraph plan's buffers cannot hold the
// whole graph, so that call plans, runs and releases a direct fp64
// full-graph workspace (allocating, and refused with ErrEPCExhausted when
// the enclave has no room for it) — and returns the exact full-graph
// labels, leaving the enclave's EPC use where it found it.
func (v *Vault) PredictNodesInto(x *mat.Matrix, seeds []int, ws *SubgraphWorkspace) ([]int, InferenceBreakdown, error) {
	labels, _, bd, err := v.predictNodesInto(context.Background(), x, seeds, ws, false)
	return labels, bd, err
}

// PredictNodesIntoContext is the serving layer's node query:
// PredictNodesInto with a deadline — a cancelled or expired ctx fails the
// query at the next boundary, on entry or just before the ECALL, with an
// error wrapping ctx.Err(), so a query routed to a slow or dead shard
// never outlives its budget. With wantScores the seeds' rectified logit
// rows cross the boundary beside their labels, priced into the ECALL
// result payload (see Workspace.PredictContext); the matrix has one row
// per seed and aliases workspace memory, overwritten by the next call,
// except on the full-graph fallback path, where it is freshly allocated.
func (v *Vault) PredictNodesIntoContext(ctx context.Context, x *mat.Matrix, seeds []int, ws *SubgraphWorkspace, wantScores bool) ([]int, *mat.Matrix, InferenceBreakdown, error) {
	return v.predictNodesInto(ctx, x, seeds, ws, wantScores)
}

func (v *Vault) predictNodesInto(ctx context.Context, x *mat.Matrix, seeds []int, ws *SubgraphWorkspace, wantScores bool) ([]int, *mat.Matrix, InferenceBreakdown, error) {
	var bd InferenceBreakdown
	if err := ctx.Err(); err != nil {
		return nil, nil, bd, fmt.Errorf("core: node query: %w", err)
	}
	if ws.released {
		return nil, nil, bd, fmt.Errorf("core: PredictNodesInto on released workspace")
	}
	if ws.v != v {
		return nil, nil, bd, fmt.Errorf("core: workspace planned for a different vault")
	}
	n := v.op.N
	if x.Rows != n {
		return nil, nil, bd, fmt.Errorf("core: input rows %d != deployed graph nodes %d", x.Rows, n)
	}
	if x.Cols != v.Backbone.FeatureDim {
		return nil, nil, bd, fmt.Errorf("core: input features %d != backbone feature dim %d", x.Cols, v.Backbone.FeatureDim)
	}
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, nil, bd, ErrNodeOutOfRange
		}
	}

	before := v.Enclave.Ledger()
	v.Enclave.ResetPeak()

	// Flight recorder: one trace per node query — expand, induce and
	// backbone stage spans in the normal world, the ECALL span wrapping
	// the in-enclave induction and rectifier ops, all under one
	// SpanNodeQuery root. Scalar probe state only; the hot path stays at
	// 0 allocs/op with recording on or off.
	rec := ws.rec
	recOn := rec.Enabled()
	var trace, ecID uint64
	var qStart, stageStart int64
	if recOn {
		trace = rec.NewSpan()
		ecID = rec.NewSpan()
		ws.bbMach.SetTrace(trace, trace)
		ws.rectMach.SetTrace(trace, ecID)
		ws.curTrace, ws.curECall = trace, ecID
		qStart = rec.Clock()
		stageStart = qStart
	}

	// Normal world: expand, induce the public operator, gather features,
	// run the backbone program — all into planned buffers.
	start := time.Now()
	cnt, err := ws.exp.Expand(v.Backbone.adj, seeds)
	if err != nil {
		return nil, nil, bd, err
	}
	if recOn {
		now := rec.Clock()
		rec.Record(obs.Span{Trace: trace, Parent: trace, Kind: obs.SpanExpand,
			Rows: int32(cnt), Start: stageStart, Dur: now - stageStart})
		stageStart = now
	}
	if cnt*4 >= n*3 {
		// The frontier is most of the graph: sampled inference saves
		// nothing, so serve exact full-graph answers instead.
		all, allScores, fbd, err := v.predict(x, wantScores)
		if err != nil {
			return nil, nil, fbd, err
		}
		out := ws.labels[:len(seeds)]
		var scores *mat.Matrix
		if wantScores {
			scores = mat.New(len(seeds), allScores.Cols)
		}
		for i, s := range seeds {
			out[i] = all[s]
			if wantScores {
				copy(scores.Row(i), allScores.Row(s))
			}
		}
		if recOn {
			rec.Record(obs.Span{Trace: trace, ID: trace, Kind: obs.SpanNodeQuery,
				Rows: int32(len(seeds)), Start: qStart, Dur: rec.Clock() - qStart})
		}
		return out, scores, fbd, nil
	}
	if _, err := ws.exp.Induce(v.Backbone.adj, ws.pubCS); err != nil {
		return nil, nil, bd, err
	}
	viewRows(ws.feat, cnt)
	subgraph.GatherRowsInto(ws.feat, x, ws.exp.Nodes())
	if recOn {
		now := rec.Clock()
		rec.Record(obs.Span{Trace: trace, Parent: trace, Kind: obs.SpanInduce,
			Rows: int32(cnt), Start: stageStart, Dur: now - stageStart})
		stageStart = now
	}
	ws.bbMach.Run(cnt, ws.featIn, nil)
	bd.BackboneTime = time.Since(start)
	if recOn {
		now := rec.Clock()
		rec.Record(obs.Span{Trace: trace, Parent: trace, Kind: obs.SpanBackbone,
			Rows: int32(cnt), Start: stageStart, Dur: now - stageStart})
		stageStart = now
	}

	// One ECALL: seed IDs and the extracted embeddings cross in, labels
	// — plus, for a scores call, the seeds' logit rows — cross out.
	ws.embs = ws.embs[:0]
	for _, i := range ws.needed {
		ws.embs = append(ws.embs, ws.blocks[i])
	}
	ws.curRows = cnt
	ws.curSeeds = len(seeds)
	payload := ws.payload*int64(cnt) + int64(len(seeds))*8
	resultBytes := int64(len(seeds)) * 8
	if wantScores {
		resultBytes += int64(len(seeds)) * int64(ws.rectMach.OutputWidth()) * 8
	}
	// Last deadline check before the enclave transition: the ECALL itself
	// is modelled (not wall-clock), so the boundary is the right place to
	// observe an expired budget.
	if err := ctx.Err(); err != nil {
		return nil, nil, bd, fmt.Errorf("core: node query: %w", err)
	}
	if err := v.Enclave.Ecall(payload, resultBytes, ws.ecall); err != nil {
		return nil, nil, bd, fmt.Errorf("core: enclave subgraph inference: %w", err)
	}
	if recOn {
		now := rec.Clock()
		rec.Record(obs.Span{Trace: trace, ID: ecID, Parent: trace, Kind: obs.SpanECall,
			Rows: int32(cnt), Bytes: payload + resultBytes,
			Start: stageStart, Dur: now - stageStart})
		rec.Record(obs.Span{Trace: trace, ID: trace, Kind: obs.SpanNodeQuery,
			Rows: int32(len(seeds)), Start: qStart, Dur: now - qStart})
	}

	bd.addPart(before, v.Enclave.Ledger())
	// Seeds occupy local rows 0..len(seeds)-1 by construction.
	var scores *mat.Matrix
	if wantScores {
		scores = &mat.Matrix{}
		ws.rectMach.Output().ViewRows(0, len(seeds), scores)
	}
	return ws.labels[:len(seeds)], scores, bd, nil
}
