package core

import (
	"fmt"

	"gnnvault/internal/exec"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
)

// Lowering: the compilers that turn a Backbone or Rectifier into an
// internal/exec op program. This is the single place the forward-pass
// structure — layer kernels and the per-design embedding wiring — is
// written down; the full-graph plan (plan.go), the subgraph plan
// (subplan.go) and the standalone RectifierWorkspace all execute the
// programs compiled here on the one shared engine, tiled or direct.
//
// Every program leaves the compilers epilogue-fused (exec.Program.Fused):
// the bias/ReLU tails of each conv collapse into the producing MatMul/SpMM
// op and the fused-away intermediates are eliminated, which removes whole
// activation passes in direct mode and whole tile flushes in tiled mode.
// The block embeddings a rectifier reads are pinned (Builder.Keep) first,
// so the transfer payload stays materialised and bit-identical; the ops
// behind blocks it does not read are eliminated with the dead values.

// lowerWorkspaceLayer wraps a layer without a row-tileable kernel
// decomposition (SAGE, GAT) as an opaque exec op over a planned
// nn.LayerWorkspace, whose output buffer becomes the op's value directly
// (no staging copy). The resulting program still runs on direct machines;
// tiled machines reject it, which is what makes EPC-budgeted plans
// GCN/Dense-only. The closure-held workspace is invisible to
// exec.Machine.BufferBytes, so its footprint is accumulated into *extra
// for the caller's EPC accounting.
func lowerWorkspaceLayer(bld *exec.Builder, l nn.Layer, in, inDim, maxRows, workers int, extra *int64) (val, outDim int) {
	wl, ok := l.(nn.WorkspaceLayer)
	if !ok {
		panic(fmt.Sprintf("core: layer %T does not support workspace inference", l))
	}
	lws, outDim := wl.PlanWorkspace(maxRows, inDim)
	lws.SetWorkers(workers)
	*extra += lws.NumBytes()
	val = bld.Func(in, outDim, func(src *mat.Matrix) *mat.Matrix {
		return wl.ForwardWS(src, lws)
	})
	return val, outDim
}

// lowerIntoExtra compiles the backbone's inference stack into bld, reading
// node features from the program value x. csr, when non-nil, substitutes
// the shared GCN message-passing operator (the subgraph path passes its
// induced public sub-CSR header); nil keeps the backbone's own adjacency.
// workers is the kernel budget baked into any opaque layer ops, whose
// closure-held workspace bytes accumulate into *extra.
//
// It returns one program value per backbone block (post-activation hidden
// embeddings plus final logits) — the transfer payload RequiredEmbeddings
// indexes into, mirroring appendBlockOutputs.
func (b *Backbone) lowerIntoExtra(bld *exec.Builder, x int, csr *graph.NormAdjacency, maxRows, workers int, extra *int64) []int {
	h := x
	width := b.FeatureDim
	acts := make([]int, 0, len(b.Model.Layers))
	for _, l := range b.Model.Layers {
		switch layer := l.(type) {
		case *nn.GCNConv:
			adj := csr
			if adj == nil {
				adj = b.adj
			}
			h = bld.MatMul(h, layer.W)
			h = bld.SpMM(adj, h)
			h = bld.AddBias(h, layer.B)
			width = layer.OutDim
		case *nn.Dense:
			h = bld.MatMul(h, layer.W)
			h = bld.AddBias(h, layer.B)
			width = layer.OutDim
		case *nn.ReLU:
			h = bld.ReLU(h)
		case *nn.Dropout:
			// inference-mode identity: the value passes through
		default:
			h, width = lowerWorkspaceLayer(bld, l, h, width, maxRows, workers, extra)
		}
		acts = append(acts, h)
	}
	blocks := make([]int, 0, len(b.convIdx))
	for i, ci := range b.convIdx {
		idx := ci
		if i < len(b.convIdx)-1 {
			idx = ci + 1 // the ReLU following the conv
		}
		blocks = append(blocks, acts[idx])
	}
	return blocks
}

// lowerInto compiles the rectifier's design wiring into bld. inputs are
// the program values of the transferred embeddings, in RequiredEmbeddings
// order; csr, when non-nil, substitutes the private message-passing
// operator (the subgraph path passes its induced private sub-CSR header,
// the sharded path its rectangular row-range shard). halo, when non-nil,
// marks a sharded lowering: every GCN conv gathers its boundary rows
// through a halo op between the feature transform and the aggregation —
// the MatMul output is row-local, so the SpMM over a rectangular shard
// CSR needs the out-of-range rows computed by the peers that own them.
// The slots are identical for every layer because the shard's halo
// column set is a property of the partition, not of the layer.
// workers should be 1 — the rectifier is in-enclave, single-threaded — and
// is baked into any opaque (non-GCN) conv ops, whose closure-held
// workspace bytes accumulate into *extra. Returns the logits value.
func (r *Rectifier) lowerInto(bld *exec.Builder, inputs []int, csr *graph.NormAdjacency, halo []exec.HaloSlot, maxRows, workers int, extra *int64) int {
	if want := len(r.RequiredEmbeddings()); len(inputs) != want {
		panic(fmt.Sprintf("core: rectifier %s wants %d embeddings, got %d", r.Design, want, len(inputs)))
	}
	adj := csr
	if adj == nil {
		adj = r.adj
	}
	prev := -1
	for k := range r.convs {
		var in int
		switch {
		case k == 0 && r.Design == Cascaded && len(inputs) > 1:
			in = bld.Concat(inputs...)
		case k == 0:
			in = inputs[0]
		case r.Design == Parallel:
			in = bld.Concat(prev, inputs[k])
		default: // cascaded/series: layer input is exactly prev
			in = prev
		}
		var v int
		if conv, ok := r.convs[k].(*nn.GCNConv); ok {
			v = bld.MatMul(in, conv.W)
			if halo != nil {
				v = bld.Halo(v, halo)
			}
			v = bld.SpMM(adj, v)
			v = bld.AddBias(v, conv.B)
		} else {
			v, _ = lowerWorkspaceLayer(bld, r.convs[k], in, r.inDim(k), maxRows, workers, extra)
		}
		if k == len(r.convs)-1 {
			return v
		}
		prev = bld.ReLU(v)
	}
	panic("core: rectifier with no layers")
}

// compileRectifier builds the full rectifier program for batches of
// maxRows rows — one input per required embedding, the design wiring, the
// terminal label reduction — and epilogue-fuses it. csr substitutes the
// private operator when non-nil; halo, when non-nil, lowers the sharded
// variant (see lowerInto). The second result is the closure-held
// workspace footprint of any opaque (non-GCN) conv ops — bytes a direct
// plan must charge on top of the machine's BufferBytes.
func (r *Rectifier) compileRectifier(maxRows int, csr *graph.NormAdjacency, halo []exec.HaloSlot) (*exec.Program, int64) {
	bld := exec.NewBuilder(maxRows)
	needed := r.RequiredEmbeddings()
	inputs := make([]int, 0, len(needed))
	for _, i := range needed {
		inputs = append(inputs, bld.Input(r.BackboneDims[i]))
	}
	var extra int64
	out := r.lowerInto(bld, inputs, csr, halo, maxRows, 1, &extra)
	bld.Argmax(out)
	return bld.Build().Fused(), extra
}

// compileBackbone builds the backbone program for batches of maxRows rows
// and epilogue-fuses it. needed lists the blocks the rectifier reads
// (RequiredEmbeddings, ascending): those are pinned first so the transfer
// payload survives fusion, the last of them is the program's output, and
// every op that feeds only blocks nobody reads is eliminated — a series
// rectifier takes one hidden block, so its backbone never computes the
// logits conv. csr substitutes the public message-passing operator when
// non-nil (the subgraph path); workers is the kernel budget baked into any
// opaque (SAGE/GAT) layer ops, whose workspace footprint accumulates into
// the last result. The returned value ids, one per block, identify the
// block embeddings in the fused program; only the needed ones still exist.
func (b *Backbone) compileBackbone(maxRows int, csr *graph.NormAdjacency, workers int, needed []int) (*exec.Program, []int, int64) {
	bld := exec.NewBuilder(maxRows)
	x := bld.Input(b.FeatureDim)
	var extra int64
	blocks := b.lowerIntoExtra(bld, x, csr, maxRows, workers, &extra)
	for _, i := range needed {
		bld.Keep(blocks[i])
	}
	bld.Output(blocks[needed[len(needed)-1]])
	return bld.Build().Fused(), blocks, extra
}

// planBackbone compiles the backbone for the needed blocks and plans its
// (normal-world, fp64) machine under cfg. The second result holds the
// machine's stable view of each needed block at the block's index — the
// headers a plan captures once and reads after every Run — and nil for
// the blocks the program no longer computes.
func (b *Backbone) planBackbone(maxRows int, csr *graph.NormAdjacency, needed []int, cfg exec.Config) (*exec.Machine, []*mat.Matrix, error) {
	prog, vals, _ := b.compileBackbone(maxRows, csr, cfg.Workers, needed)
	mach, err := prog.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	blocks := make([]*mat.Matrix, len(vals))
	for _, i := range needed {
		blocks[i] = mach.Value(vals[i])
	}
	return mach, blocks, nil
}
