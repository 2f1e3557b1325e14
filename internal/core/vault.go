package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// Vault is a deployed GNNVault instance (paper step 4, Fig. 2): the public
// backbone and substitute graph live in the untrusted world; the rectifier
// parameters and the real COO adjacency are sealed inside the enclave. The
// only output that ever leaves the enclave is the predicted class label per
// node — logits stay inside (paper Sec. IV-E).
type Vault struct {
	Backbone *Backbone
	Enclave  *enclave.Enclave

	// rectifier and op (the private operator every plan computes over;
	// a shard vault's is the fleet's whole one) are enclave-resident
	// state, unexported: untrusted callers of this package cannot reach them.
	rectifier *Rectifier
	op        *graph.NormAdjacency

	sealedParams []byte
	sealedGraph  []byte

	// persistentBytes is the EPC held by the vault's resident state
	// (rectifier parameters + private adjacency), returned by Undeploy.
	// undeployed is atomic so Undeploy is idempotent under the concurrent
	// serving the enclave's goroutine-safe ledger invites.
	persistentBytes int64
	undeployed      atomic.Bool

	// features is the current SetCalibrationFeatures registration (nil when
	// nothing is registered): the matrix int8 plans calibrate against and
	// the public-half store keyed by it (store.go). Atomic: serving code
	// re-registers while planners and passes are running, and each of them
	// loads it exactly once.
	features atomic.Pointer[registration]
}

// InferenceBreakdown is the Fig. 6 decomposition of one inference pass.
// When the pass's input is the vault's registered feature matrix and the
// public-half store already holds its embeddings, the backbone does not run:
// BackboneReused is set and BackboneTime is the (sub-microsecond) lookup.
type InferenceBreakdown struct {
	BackboneTime time.Duration // measured, normal world (parallel kernels)
	TransferTime time.Duration // modelled: ECALL transitions + marshalling
	EnclaveTime  time.Duration // measured in-enclave compute ×slowdown + paging
	PeakEPCBytes int64
	BytesIn      int64
	ECalls       int
	// BackboneReused reports that the embeddings were read from the
	// public-half store and no backbone op ran.
	BackboneReused bool
}

// Total returns the end-to-end inference latency.
func (b InferenceBreakdown) Total() time.Duration {
	return b.BackboneTime + b.TransferTime + b.EnclaveTime
}

// Deploy provisions a trained GNNVault onto a device: it creates an enclave
// measured over the sealed rectifier+graph payloads, allocates EPC for the
// persistent state (parameters and the operator derived from private,
// which the vault computes over whatever the rectifier was trained with),
// and returns the deployment handle.
//
// Deploy fails with enclave.ErrEPCExhausted if the persistent state cannot
// fit the EPC — the check that motivates Table I's DenseA column.
func Deploy(bb *Backbone, rec *Rectifier, private *graph.Graph, cost enclave.CostModel) (*Vault, error) {
	// The measurement covers the enclave's code identity — design, conv
	// kind and layer dimensions — as MRENCLAVE covers code and initial
	// data pages. Weights and the private graph are provisioned as sealed
	// blobs after launch, so two devices running the same rectifier build
	// measure identically and can exchange sealed state.
	return DeployInto(enclave.New(cost, rec.Identity()), bb, rec, private)
}

// DeployInto provisions a trained GNNVault into an existing enclave, so one
// enclave (one device's EPC) can host several deployed vaults — the
// multi-vault serving setup managed by internal/registry. It seals the
// rectifier parameters and real adjacency under the enclave's identity and
// charges the EPC for the persistent residents; on failure nothing stays
// allocated.
//
// A multi-vault enclave's measurement covers whatever identities the caller
// passed to enclave.New, typically every hosted rectifier's Identity.
func DeployInto(encl *enclave.Enclave, bb *Backbone, rec *Rectifier, private *graph.Graph) (*Vault, error) {
	op, err := privateOperator(bb, rec.Conv, private)
	if err != nil {
		return nil, err
	}
	sealedGraph, err := encl.Seal(graph.MarshalCOO(private))
	if err != nil {
		return nil, fmt.Errorf("core: sealing private graph: %w", err)
	}
	return deployInto(encl, bb, rec, op, sealedGraph, op.NumBytes())
}

// privateOperator is where DeployInto, DeploySharded and Import derive the
// operator a deployment computes over, once. A GNN backbone's graph fixes
// the node count every pass runs at, so a private graph of another size
// is refused; a DNN backbone has no graph to match.
func privateOperator(bb *Backbone, kind ConvKind, private *graph.Graph) (*graph.NormAdjacency, error) {
	if bb.SubGraph != nil && private.N() != bb.SubGraph.N() {
		return nil, fmt.Errorf("core: private graph has %d nodes, the backbone's graph %d", private.N(), bb.SubGraph.N())
	}
	return convOperator(kind, private), nil
}

// deployInto seals the rectifier parameters under the enclave's identity
// and admits the vault over op (see admit). The full-graph path passes the
// whole operator's bytes; a shard deployment (DeploySharded) passes only
// its row-range slab's bytes — and a nil sealedGraph, because the shard's
// at-rest adjacency lives inside the partition's shared value slab rather
// than as a standalone COO blob.
func deployInto(encl *enclave.Enclave, bb *Backbone, rec *Rectifier, op *graph.NormAdjacency, sealedGraph []byte, graphBytes int64) (*Vault, error) {
	sealedParams, err := encl.Seal(rec.MarshalParams())
	if err != nil {
		return nil, fmt.Errorf("core: sealing rectifier params: %w", err)
	}
	return admit(encl, bb, rec, op, sealedParams, sealedGraph, graphBytes)
}

// admit is the one place a vault's persistent residents are charged,
// whether it was just trained (deployInto) or arrived in a bundle
// (Import): parameters, then graphBytes of adjacency, nothing left
// allocated if either does not fit, and the sum recorded in the handle so
// Undeploy returns exactly what was taken.
func admit(encl *enclave.Enclave, bb *Backbone, rec *Rectifier, op *graph.NormAdjacency, sealedParams, sealedGraph []byte, graphBytes int64) (*Vault, error) {
	paramBytes := rec.ParamBytes()
	if err := encl.Alloc(paramBytes); err != nil {
		return nil, fmt.Errorf("core: rectifier parameters do not fit EPC: %w", err)
	}
	if err := encl.Alloc(graphBytes); err != nil {
		encl.Free(paramBytes)
		return nil, fmt.Errorf("core: private adjacency does not fit EPC: %w", err)
	}

	return &Vault{
		Backbone:        bb,
		Enclave:         encl,
		rectifier:       rec,
		op:              op,
		sealedParams:    sealedParams,
		sealedGraph:     sealedGraph,
		persistentBytes: paramBytes + graphBytes,
	}, nil
}

// PersistentBytes returns the EPC held by the vault's resident state
// (rectifier parameters + private adjacency), charged at deploy time and
// released only by Undeploy.
func (v *Vault) PersistentBytes() int64 { return v.persistentBytes }

// Undeploy returns the vault's persistent EPC to the enclave, making room
// for other tenants of a shared enclave, and drops the feature registration
// so an undeployed vault pins no embedding memory. The vault must not be
// used for inference afterwards, and any planned workspaces must be
// released first. Idempotent.
func (v *Vault) Undeploy() {
	if v.undeployed.Swap(true) {
		return
	}
	v.features.Store(nil)
	v.Enclave.Free(v.persistentBytes)
}

// SealedArtifacts returns the encrypted blobs persisted on untrusted
// storage. Exposed so tests and examples can demonstrate that the at-rest
// payloads are ciphertext.
func (v *Vault) SealedArtifacts() (params, coo []byte) {
	return v.sealedParams, v.sealedGraph
}

// Design returns the deployed rectifier's communication scheme.
func (v *Vault) Design() RectifierDesign { return v.rectifier.Design }

// RectifierParams returns θ_rec of the deployed rectifier.
func (v *Vault) RectifierParams() int { return v.rectifier.NumParams() }

// Predict is the one-shot form of the engine: plan an untiled fp64
// workspace (PlanWith with the PlanConfig zero value), run one PredictInto
// pass — backbone in the normal world, one ECALL carrying the embeddings
// the design requires, rectification inside the enclave, label-only output
// — copy the labels out and release the workspace, so the enclave's EPC
// use is back where it was when Predict returns. It fails with
// enclave.ErrEPCExhausted wrapped when that working set does not fit.
// Goroutine-safe: every call owns its workspace.
//
// Every call compiles both programs and allocates every buffer again — on
// cora (2 708 nodes) ≈ 4 MB and 140 allocations, about a third more wall
// time than the pass — and the breakdown covers the pass only, so this is
// not the call to benchmark: anything that answers more than once plans
// once and calls PredictInto.
func (v *Vault) Predict(x *mat.Matrix) ([]int, InferenceBreakdown, error) {
	labels, _, bd, err := v.predict(x, false)
	return labels, bd, err
}

// predict is Predict's body. With wantScores the rectified logits leave
// the enclave too (see Workspace.PredictContext). Labels and logits are copies
// owned by the caller.
func (v *Vault) predict(x *mat.Matrix, wantScores bool) ([]int, *mat.Matrix, InferenceBreakdown, error) {
	ws, err := v.PlanWith(v.Nodes(), PlanConfig{}) // the pass holds x to the plan's shape
	if err != nil {
		return nil, nil, InferenceBreakdown{}, err
	}
	defer ws.Release()
	labels, scores, bd, err := ws.predict(context.Background(), v, x, wantScores)
	if err != nil {
		return nil, nil, bd, err
	}
	if wantScores {
		scores = scores.Clone()
	}
	return append([]int(nil), labels...), scores, bd, nil
}

// addPart folds one part's before/after ledger snapshots into a
// breakdown, so inference paths never reset the shared ledger (which would
// corrupt concurrent callers' deltas): byte and call counts sum over
// parts, the modelled times are the slowest part's (parts run in
// parallel), and PeakEPCBytes is the busiest enclave's running peak,
// rebased per call via ResetPeak. Folding one part into a zero breakdown
// gives that part's deltas.
func (bd *InferenceBreakdown) addPart(before, after enclave.Ledger) {
	tr := after.TransferTime() - before.TransferTime()
	en := after.EnclaveTime() - before.EnclaveTime()
	if tr+en >= bd.TransferTime+bd.EnclaveTime {
		bd.TransferTime, bd.EnclaveTime = tr, en
	}
	bd.PeakEPCBytes = max(bd.PeakEPCBytes, after.PeakEPCBytes)
	bd.BytesIn += after.BytesIn - before.BytesIn
	bd.ECalls += after.ECalls - before.ECalls
}

// UnprotectedInference measures the baseline of Fig. 6: the original GNN
// running entirely on the normal-world CPU, single-threaded as the paper's
// CPU baseline — its compiled program on a one-worker exec machine, the
// engine the protected path runs, so the figure compares deployments and
// not runtimes. Returns its labels and the wall time of the pass (planning
// excluded, as it is from a vault's breakdown).
func UnprotectedInference(orig *Backbone, x *mat.Matrix) ([]int, time.Duration) {
	lastBlock := []int{len(orig.BlockDims) - 1} // the logits: the program's output
	mach, _, err := orig.planBackbone(x.Rows, orig.adj, lastBlock, exec.Config{Workers: 1})
	if err != nil {
		panic(fmt.Sprintf("core: compiling the original model: %v", err))
	}
	start := time.Now()
	out := mach.Run(x.Rows, []*mat.Matrix{x}, nil)
	elapsed := time.Since(start)
	return out.ArgmaxRows(), elapsed
}

// EnclaveMemoryEstimate returns the static Fig. 6 (bottom) estimate for a
// rectifier deployment over n nodes: persistent parameters + adjacency +
// transferred embeddings + peak activations, over the training operator.
func EnclaveMemoryEstimate(rec *Rectifier, backboneDims []int, n int) int64 {
	embBytes := int64(0)
	for _, i := range rec.RequiredEmbeddings() {
		embBytes += int64(backboneDims[i]) * int64(n) * 8
	}
	return rec.ParamBytes() + rec.Adjacency().NumBytes() + embBytes + rec.ActivationBytes(n)
}

// FullModelMemoryEstimate returns what hosting the *entire* original GNN in
// the enclave would cost: all parameters, the adjacency, the input features
// and the widest activation — the quantity the paper compares against the
// 128 MB PRM to argue full-model enclaving is impractical.
func FullModelMemoryEstimate(orig *Backbone, n, featureDim int) int64 {
	adj := int64(0)
	if orig.adj != nil {
		adj = orig.adj.NumBytes()
	}
	widest := featureDim
	for _, d := range orig.BlockDims {
		if d > widest {
			widest = d
		}
	}
	actBytes := int64(widest) * int64(n) * 8 * 2 // in+out coexist
	featBytes := int64(featureDim) * int64(n) * 8
	return orig.Model.ParamBytes() + adj + featBytes + actBytes
}
