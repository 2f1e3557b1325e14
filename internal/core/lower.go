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
// (subplan.go) and the sharded plan (shardplan.go) all execute the
// programs compiled here on the one shared engine, tiled or direct.
//
// Every conv kind lowers onto the op vocabulary — there is no opaque op —
// so every program tiles, quantises and declares the memory its ops
// touch: BufferBytes counts a machine's value slots (values share them by
// liveness) and TileBytes its staging tile and chaining band, each with
// the attention scratch row. Neither counts inputs, nor an int8 machine's
// boundary codes and dequantised output. A plan prices the inputs (at
// int8, their codes) as payload: a direct plan charges it to the EPC and
// bills its transfer only when its machine does not already hold the
// store record it reads; a tiled plan keeps it in sealed untrusted pages
// and bills it on every pass. The dequantised output is charged nowhere
// (ROADMAP item 11).
//
// Every program leaves the compilers epilogue-fused (exec.Program.Fused):
// the bias/ReLU tails of each conv collapse into the producing product op
// and the fused-away intermediates are eliminated, which removes whole
// activation passes in direct mode and whole tile flushes in tiled mode.
// The block embeddings a rectifier reads are pinned (Builder.Keep) first,
// so the transfer payload stays materialised and bit-identical; the ops
// behind blocks it does not read are eliminated with the dead values.

// lowerConv compiles one graph convolution over the program value in and
// returns its (pre-activation) output value — the one conv lowering, used
// by the backbone and the rectifier compilers alike. Each kind is written
// in the op order of its nn Forward, which is what holds a planned answer
// to the reference:
//
//	GCN:  Â·(in·W) + b
//	SAGE: in·W_self + (D⁻¹A·in)·W_nbr + b
//	GAT:  z = in·W;  attention aggregate of z under the scores z·aₛ, z·aₜ;  + b
//
// op is the operator the conv aggregates over, always the caller's and never the conv's own: the
// backbone's, a vault's private operator, an induced sub-CSR or a
// partition shard. halo, when non-nil, marks a sharded lowering: the
// MatMul output is row-local, so the SpMM over a rectangular shard CSR
// gathers the out-of-range rows from the peers that own them through a
// halo op in between. Only GCN has a halo lowering
// (DeploySharded refuses the rest up front); a layer that is no graph
// convolution is a compiler bug.
func lowerConv(bld *exec.Builder, conv nn.Layer, in int, op *graph.NormAdjacency, halo []exec.HaloSlot) int {
	if _, gcn := conv.(*nn.GCNConv); halo != nil && !gcn {
		panic(fmt.Sprintf("core: no halo lowering for %T", conv))
	}
	switch c := conv.(type) {
	case *nn.GCNConv:
		v := bld.MatMul(in, c.W)
		if halo != nil {
			v = bld.Halo(v, halo)
		}
		return bld.AddBias(bld.SpMM(op, v), c.B)
	case *nn.SAGEConv:
		mx := bld.SpMM(op, in)
		self := bld.MatMul(in, c.WSelf)
		nbr := bld.MatMul(mx, c.WNbr)
		return bld.AddBias(bld.Add(self, nbr), c.B)
	case *nn.GATConv:
		// The score vectors are d×1 weights over the layer's own slices.
		z := bld.MatMul(in, c.W)
		s := bld.MatMul(z, mat.FromSlice(c.OutDim, 1, c.ASrc))
		t := bld.MatMul(z, mat.FromSlice(c.OutDim, 1, c.ADst))
		return bld.AddBias(bld.Attn(op, s, t, z, c.NegSlope), c.B)
	default:
		panic(fmt.Sprintf("core: no lowering for layer %T", conv))
	}
}

// lowerInto compiles the backbone's inference stack into bld, reading
// node features from the program value x, message passing over op (the
// backbone's own operator for a full-graph program, the subgraph path's
// induced public sub-CSR header for a node query).
//
// It returns one program value per backbone block (post-activation hidden
// embeddings plus final logits) — the transfer payload RequiredEmbeddings
// indexes into.
func (b *Backbone) lowerInto(bld *exec.Builder, x int, op *graph.NormAdjacency) []int {
	h := x
	acts := make([]int, 0, len(b.Model.Layers))
	for _, l := range b.Model.Layers {
		switch layer := l.(type) {
		case *nn.Dense:
			h = bld.MatMul(h, layer.W)
			h = bld.AddBias(h, layer.B)
		case *nn.ReLU:
			h = bld.ReLU(h)
		case *nn.Dropout:
			// inference-mode identity: the value passes through
		default:
			h = lowerConv(bld, l, h, op, nil)
		}
		acts = append(acts, h)
	}
	return blockOutputs(b, acts)
}

// lowerInto compiles the rectifier's design wiring into bld. inputs are
// the program values of the transferred embeddings, in RequiredEmbeddings
// order; op is the private message-passing operator (the vault's own for
// a full-graph program, the subgraph path's induced private sub-CSR
// header, the sharded path's rectangular row-range shard) and halo, when
// non-nil, marks a sharded lowering (see lowerConv). The slots are
// identical for every layer because the shard's halo column set is a
// property of the partition, not of the layer. Returns the logits value.
func (r *Rectifier) lowerInto(bld *exec.Builder, inputs []int, op *graph.NormAdjacency, halo []exec.HaloSlot) int {
	if want := len(r.RequiredEmbeddings()); len(inputs) != want {
		panic(fmt.Sprintf("core: rectifier %s wants %d embeddings, got %d", r.Design, want, len(inputs)))
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
		v := lowerConv(bld, r.convs[k], in, op, halo)
		if k == len(r.convs)-1 {
			return v
		}
		prev = bld.ReLU(v)
	}
	panic("core: rectifier with no layers")
}

// compileRectifier builds the full rectifier program for batches of
// maxRows rows — one input per required embedding, the design wiring, the
// terminal label reduction — over the private operator op — and
// epilogue-fuses it; halo, when non-nil, lowers the sharded variant (see
// lowerConv).
func (r *Rectifier) compileRectifier(maxRows int, op *graph.NormAdjacency, halo []exec.HaloSlot) *exec.Program {
	bld := exec.NewBuilder(maxRows)
	needed := r.RequiredEmbeddings()
	inputs := make([]int, 0, len(needed))
	for _, i := range needed {
		inputs = append(inputs, bld.Input(r.BackboneDims[i]))
	}
	bld.Argmax(r.lowerInto(bld, inputs, op, halo))
	return bld.Build().Fused()
}

// compileBackbone builds the backbone program for batches of maxRows rows
// and epilogue-fuses it. needed lists the blocks the rectifier reads
// (RequiredEmbeddings, ascending): those are pinned first so the transfer
// payload survives fusion, the last of them is the program's output, and
// every op that feeds only blocks nobody reads is eliminated — a series
// rectifier takes one hidden block, so its backbone never computes the
// logits conv. op is the public message-passing operator (b.adj, or the
// subgraph path's induced sub-CSR). The returned value ids, one per block,
// identify the block embeddings in the fused program; only the needed ones
// still exist.
func (b *Backbone) compileBackbone(maxRows int, op *graph.NormAdjacency, needed []int) (*exec.Program, []int) {
	bld := exec.NewBuilder(maxRows)
	blocks := b.lowerInto(bld, bld.Input(b.FeatureDim), op)
	for _, i := range needed {
		bld.Keep(blocks[i])
	}
	bld.Output(blocks[needed[len(needed)-1]])
	return bld.Build().Fused(), blocks
}

// planBackbone compiles the backbone for the needed blocks and plans its
// (normal-world, fp64) machine under cfg. The second result holds the
// machine's stable view of each needed block at the block's index — the
// headers a plan captures once and reads after every Run — and nil for
// the blocks the program no longer computes.
func (b *Backbone) planBackbone(maxRows int, op *graph.NormAdjacency, needed []int, cfg exec.Config) (*exec.Machine, []*mat.Matrix, error) {
	prog, vals := b.compileBackbone(maxRows, op, needed)
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
