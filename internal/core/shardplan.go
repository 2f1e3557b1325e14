package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
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

// ShardFault attributes a full-graph inference failure to the part whose
// enclave caused it — a shard of a fleet, or part 0 of a single vault's
// plan — so the serving layer can trip that shard's circuit breaker
// instead of guessing from an opaque error string. It wraps the
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

	// partition is the private operator cut into shards: each shard's CSR slab
	// and, in Halo[s], its private cross-shard neighbours. It stays
	// unexported like the vault's private graph; Bounds hands out the row
	// ranges alone.
	partition *graph.Partition

	// op is the fleet's one private operator, partition's parent; every
	// shard vault points at it.
	op        *graph.NormAdjacency
	rectifier *Rectifier
	cost      enclave.CostModel
	vaults    []atomic.Pointer[Vault]

	// features is the fleet's one SetCalibrationFeatures registration and
	// public-half store (store.go), read by the fleet's plans and passes.
	// Every shard vault points at the same record — the fleet's plans and
	// per-shard subgraph plans share its one int8 calibration — and it
	// lives here, not on a shard, so replacing a shard's vault
	// (RecoverShard) cannot drop it.
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
	op, err := privateOperator(bb, rec.Conv, private)
	if err != nil {
		return nil, err
	}
	sv := &ShardedVault{Backbone: bb, partition: graph.NewPartition(op, shards), op: op, rectifier: rec, cost: cost}
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
	return deployInto(encl, sv.Backbone, sv.rectifier, sv.op, nil, sv.partition.CSR[s].NumBytes())
}

// Shards returns the fleet's shard count.
func (sv *ShardedVault) Shards() int { return len(sv.vaults) }

// Shard returns shard s's current vault — its own enclave over the
// shared model. Node-query serving plans per-shard subgraph workspaces
// through it. The pointer is a snapshot: after a RecoverShard it names
// the replaced vault, so callers must not cache it across failures.
func (sv *ShardedVault) Shard(s int) *Vault { return sv.vaults[s].Load() }

// Bounds returns a copy of the shard row boundaries: shard s owns global
// rows [Bounds()[s], Bounds()[s+1]). The ranges are no secret — each
// ECALL's row count already shows them to the host — but the partition
// behind them (CSR slabs, halo neighbours) is, so only they leave.
func (sv *ShardedVault) Bounds() []int { return append([]int(nil), sv.partition.Bounds...) }

// Nodes returns the node count of the deployed private graph.
func (sv *ShardedVault) Nodes() int { return sv.op.N }

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
	reg, err := newRegistration(x, sv.op.N, sv.Backbone.FeatureDim)
	if err != nil {
		return err
	}
	sv.features.Store(reg)
	for s := range sv.vaults {
		sv.vaults[s].Load().features.Store(reg)
	}
	return nil
}

// ShardedWorkspace is the name the sharded planner's callers know a
// Workspace by; a sharded plan is the same type with one part per shard.
type ShardedWorkspace = Workspace

// PlanSharded builds a reusable sharded inference workspace for batches
// of rows nodes (rows must equal the deployed graph's node count): the
// fleet planner with one part per shard. Every PlanConfig knob keeps its
// PlanWith meaning, applied per shard: an EPCBudgetBytes is each *shard's*
// budget — tiles derive from the shard's own row count — and reduced
// precisions take the registration's scales, calibrated once against the
// unsharded fp64 reference, so every shard quantizes on the same grid and
// the fleet's labels stay bit-identical to the single-enclave plan's.
func (sv *ShardedVault) PlanSharded(rows int, cfg PlanConfig) (*Workspace, error) {
	return planFull(sv, sv.partition, rows, cfg)
}

// PredictInto runs one full sharded inference: the backbone once at full
// height in the normal world — or, when x is the fleet's registered feature
// matrix and a pass has already published its embeddings, the public-half
// store's blocks instead (InferenceBreakdown.BackboneReused; see
// Vault.PredictInto) — then one modelled ECALL per shard, fanned out
// concurrently — each carries the shard's embedding rows plus its spill
// and halo traffic in, and its rows of the label vector out, while the
// fleet's barriers synchronise the per-layer halo exchange between the
// enclaves. The returned labels are in seed (global row) order, owned by
// the workspace and overwritten by the next call; they are bit-identical
// to the single-enclave plan's at every precision tier.
//
// A shard enclave failure (e.g. enclave.ErrEnclaveLost under a fault plan)
// aborts the pass: every shard unwinds at its next barrier, and the
// returned error is a *ShardFault naming the culprit shard, so the serving
// layer can trip that shard's breaker and recover it. A deadline-bounded
// pass is Workspace.PredictContext.
//
// The breakdown's byte and call counts sum over shards; its modelled time
// components follow the slowest shard, since the fleet runs them in
// parallel. PeakEPCBytes is the busiest single enclave — each shard has
// its own EPC.
func (sv *ShardedVault) PredictInto(x *mat.Matrix, ws *Workspace) ([]int, InferenceBreakdown, error) {
	labels, _, bd, err := ws.predict(context.Background(), sv, x, false)
	return labels, bd, err
}

// RecoverShard replaces shard s's lost enclave with a freshly provisioned
// one: the shard's CSR slab and the rectifier parameters are re-sealed into
// a new enclave (same cost model and measurement as the original deploy),
// the fleet's feature registration — with whatever its store and
// calibration already hold — is carried onto it, and the vault pointer is
// swapped atomically. It only re-provisions: every workspace planned before — full-graph or a
// shard's subgraph plan — stays bound to the vaults it was planned against
// and refuses passes once one of them is undeployed, so the caller
// releases those workspaces (Release frees their EPC where it was charged)
// and plans fresh ones, admitted on the carried calibration like any plan.
// On an error the shard stays dead and the call can simply be retried.
func (sv *ShardedVault) RecoverShard(s int) error {
	if s < 0 || s >= len(sv.vaults) {
		return fmt.Errorf("core: recover shard %d of %d", s, len(sv.vaults))
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
	if u := seeds[0]; u >= 0 && u < sv.op.N {
		return sv.partition.Owner(u), nil
	}
	return 0, ErrNodeOutOfRange
}

// PredictNodesAt answers a node-level query on shard s's vault with no
// deadline; see PredictNodesAtContext.
func (sv *ShardedVault) PredictNodesAt(x *mat.Matrix, seeds []int, s int, ws *SubgraphWorkspace) ([]int, int64, InferenceBreakdown, error) {
	labels, _, halo, bd, err := sv.PredictNodesAtContext(context.Background(), x, seeds, s, ws, false)
	return labels, halo, bd, err
}

// PredictNodesAtContext answers a node-level query on shard s's vault
// (ws must be a subgraph workspace planned from that vault) and prices
// the cross-shard traffic the query induced: every extracted node owned
// by a peer shard models one OCALL from s's enclave — the sealed fetch
// of that node's embedding row — and the fetched bytes are returned as
// halo traffic for the caller's accounting. Labels alias ws, one per
// seed; with wantScores so do the seeds' logit rows (see
// Vault.PredictNodesIntoContext). A cancelled or expired ctx fails the
// query before its ECALL; a lost shard enclave fails it with
// enclave.ErrEnclaveLost (wrapped).
func (sv *ShardedVault) PredictNodesAtContext(ctx context.Context, x *mat.Matrix, seeds []int, s int, ws *SubgraphWorkspace, wantScores bool) ([]int, *mat.Matrix, int64, InferenceBreakdown, error) {
	v := sv.vaults[s].Load()
	labels, scores, bd, err := v.PredictNodesIntoContext(ctx, x, seeds, ws, wantScores)
	if err != nil {
		return nil, nil, 0, bd, err
	}
	var haloBytes int64
	for _, u := range ws.ExtractedNodes() {
		if sv.partition.Owner(u) != s {
			v.Enclave.Ocall()
			haloBytes += ws.payload
		}
	}
	return labels, scores, haloBytes, bd, nil
}
