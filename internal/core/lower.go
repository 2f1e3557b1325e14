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
// so every program tiles, quantises and declares all the memory it
// touches: BufferBytes/TileBytes are a machine's whole working set.
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
// and a multi-head GAT is its heads, concatenated. csr, when non-nil,
// substitutes the operator the conv aggregates over (an induced sub-CSR,
// a partition shard); nil keeps the conv's own. halo, when non-nil, marks
// a sharded lowering: the MatMul output is row-local, so the SpMM over a
// rectangular shard CSR gathers the out-of-range rows from the peers that
// own them through a halo op in between. Only GCN has a halo lowering
// (DeploySharded refuses the rest up front); a layer that is no graph
// convolution is a compiler bug.
func lowerConv(bld *exec.Builder, conv nn.Layer, in int, csr *graph.NormAdjacency, halo []exec.HaloSlot) int {
	own := func(op *graph.NormAdjacency) *graph.NormAdjacency {
		if csr != nil {
			return csr
		}
		return op
	}
	if _, gcn := conv.(*nn.GCNConv); halo != nil && !gcn {
		panic(fmt.Sprintf("core: no halo lowering for %T", conv))
	}
	switch c := conv.(type) {
	case *nn.GCNConv:
		v := bld.MatMul(in, c.W)
		if halo != nil {
			v = bld.Halo(v, halo)
		}
		return bld.AddBias(bld.SpMM(own(c.Adjacency()), v), c.B)
	case *nn.SAGEConv:
		mx := bld.SpMM(own(c.Mean()), in)
		self := bld.MatMul(in, c.WSelf)
		nbr := bld.MatMul(mx, c.WNbr)
		return bld.AddBias(bld.Add(self, nbr), c.B)
	case *nn.GATConv:
		// The score vectors are d×1 weights over the layer's own slices.
		z := bld.MatMul(in, c.W)
		s := bld.MatMul(z, mat.FromSlice(c.OutDim, 1, c.ASrc))
		t := bld.MatMul(z, mat.FromSlice(c.OutDim, 1, c.ADst))
		return bld.AddBias(bld.Attn(own(c.Structure()), s, t, z, c.NegSlope), c.B)
	case *nn.MultiHeadGAT:
		heads := make([]int, len(c.Heads))
		for h, head := range c.Heads {
			heads[h] = lowerConv(bld, head, in, csr, nil)
		}
		return bld.Concat(heads...)
	default:
		panic(fmt.Sprintf("core: no lowering for layer %T", conv))
	}
}

// lowerInto compiles the backbone's inference stack into bld, reading
// node features from the program value x. csr, when non-nil, substitutes
// the message-passing operator (the subgraph path passes its induced
// public sub-CSR header); nil keeps each conv's own.
//
// It returns one program value per backbone block (post-activation hidden
// embeddings plus final logits) — the transfer payload RequiredEmbeddings
// indexes into.
func (b *Backbone) lowerInto(bld *exec.Builder, x int, csr *graph.NormAdjacency) []int {
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
			h = lowerConv(bld, l, h, csr, nil)
		}
		acts = append(acts, h)
	}
	return blockOutputs(b, acts)
}

// lowerInto compiles the rectifier's design wiring into bld. inputs are
// the program values of the transferred embeddings, in RequiredEmbeddings
// order; csr, when non-nil, substitutes the private message-passing
// operator (the subgraph path passes its induced private sub-CSR header,
// the sharded path its rectangular row-range shard) and halo, when
// non-nil, marks a sharded lowering (see lowerConv). The slots are
// identical for every layer because the shard's halo column set is a
// property of the partition, not of the layer. Returns the logits value.
func (r *Rectifier) lowerInto(bld *exec.Builder, inputs []int, csr *graph.NormAdjacency, halo []exec.HaloSlot) int {
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
		v := lowerConv(bld, r.convs[k], in, csr, halo)
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
// variant (see lowerConv).
func (r *Rectifier) compileRectifier(maxRows int, csr *graph.NormAdjacency, halo []exec.HaloSlot) *exec.Program {
	bld := exec.NewBuilder(maxRows)
	needed := r.RequiredEmbeddings()
	inputs := make([]int, 0, len(needed))
	for _, i := range needed {
		inputs = append(inputs, bld.Input(r.BackboneDims[i]))
	}
	bld.Argmax(r.lowerInto(bld, inputs, csr, halo))
	return bld.Build().Fused()
}

// compileBackbone builds the backbone program for batches of maxRows rows
// and epilogue-fuses it. needed lists the blocks the rectifier reads
// (RequiredEmbeddings, ascending): those are pinned first so the transfer
// payload survives fusion, the last of them is the program's output, and
// every op that feeds only blocks nobody reads is eliminated — a series
// rectifier takes one hidden block, so its backbone never computes the
// logits conv. csr substitutes the public message-passing operator when
// non-nil (the subgraph path). The returned value ids, one per block,
// identify the block embeddings in the fused program; only the needed ones
// still exist.
func (b *Backbone) compileBackbone(maxRows int, csr *graph.NormAdjacency, needed []int) (*exec.Program, []int) {
	bld := exec.NewBuilder(maxRows)
	blocks := b.lowerInto(bld, bld.Input(b.FeatureDim), csr)
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
func (b *Backbone) planBackbone(maxRows int, csr *graph.NormAdjacency, needed []int, cfg exec.Config) (*exec.Machine, []*mat.Matrix, error) {
	prog, vals := b.compileBackbone(maxRows, csr, needed)
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
