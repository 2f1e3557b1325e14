package exec

// Epilogue fusion. A lowered GNN forward pass is dominated by chains of
// the form product → bias → (residual) → ReLU, and in the op-major tiled
// machine every link of that chain pays a full pass over the activation:
// read the spilled input, write the staging tile, flush the tile back out.
// The fusion pass rewrites a program so each such chain becomes ONE op —
// the producing MatMul/SpMM with an Epilogue (bias vector, residual
// source, activation flag) applied to each output tile while it is still
// resident — and then erases the fused-away intermediates entirely
// (dead-value elimination), so they cost neither spill buffers nor flush
// traffic. Fused programs are bit-identical to their unfused form: the
// epilogue kernels perform exactly the float operations of the standalone
// ops, in the same element order (mat.ApplyEpilogueRow is the one
// definition of the per-row epilogue semantics).

// Epilogue is the element-wise tail fused into a producing
// MatMul/SpMM/Attn op, applied in canonical order: add Bias (broadcast),
// add the Res value (element-wise), then ReLU. The zero value plus
// Res == -1 means no epilogue; only the fusion pass sets one.
type Epilogue struct {
	Bias []float64 // optional broadcast bias, nil = none
	Res  int       // value id of the residual operand, -1 = none
	ReLU bool      // clamp at zero last
}

// hasEpilogue reports whether ops of kind k — the three products —
// finish their rows through an Epilogue: what the fusion pass may fold
// into, and at int8 where the wide argmax head can sit.
func (k OpKind) hasEpilogue() bool { return k == OpMatMul || k == OpSpMM || k == OpAttn }

// Fused returns a program with epilogue fusion and dead-op and dead-value
// elimination applied; the receiver is unchanged and remains valid. The
// fusion is a peephole over adjacent ops — exactly the shape lowering emits — folding
// an AddBias/Add/ReLU into an immediately preceding product op when the
// consumed value has no other consumer, is not an external input, is not
// marked kept (Builder.Keep) and is not the program output. Folding
// preserves canonical epilogue order (bias, then residual, then ReLU);
// chains in any other order are left unfused rather than reassociated,
// because float addition order is part of the bit-identity contract.
// Ops whose result nothing reads — no later op, no Keep, not the output —
// are then dropped, last to first, so a whole unread tail goes. Values
// orphaned by either step are marked dead: machines planned from the
// fused program allocate no buffers for them, SpillTraffic no longer
// counts their flushes, and Machine.Value refuses them.
func (p *Program) Fused() *Program {
	q := *p
	q.vals = append([]value(nil), p.vals...)

	// Use counts over the original sequence; folding decrements the count
	// of the value a folded op consumed so later folds in the same chain
	// see the remaining consumers.
	uses := p.readers()
	// killable reports whether v may disappear when its single remaining
	// consumer is folded away.
	killable := func(v int) bool {
		return uses[v] == 1 && v != p.output && !q.vals[v].keep && q.vals[v].input < 0
	}

	ops := make([]Op, 0, len(p.ops))
	for _, op := range p.ops {
		if len(ops) > 0 {
			prev := &ops[len(ops)-1]
			if prev.Kind.hasEpilogue() {
				switch op.Kind {
				case OpAddBias:
					// In-place op: folding attaches the bias, the value id
					// is unchanged. Rejected once a residual or ReLU is
					// already attached — the bias would apply out of order.
					if op.Srcs[0] == prev.Dst && prev.Epi.Bias == nil && prev.Epi.Res < 0 && !prev.Epi.ReLU {
						prev.Epi.Bias = op.B
						uses[op.Srcs[0]]--
						continue
					}
				case OpAdd:
					if prev.Epi.Res < 0 && !prev.Epi.ReLU {
						other := -1
						switch prev.Dst {
						case op.Srcs[0]:
							other = op.Srcs[1]
						case op.Srcs[1]:
							other = op.Srcs[0]
						}
						// The residual add is commutative bit-for-bit, so
						// either operand order folds.
						if other >= 0 && other != prev.Dst && killable(prev.Dst) {
							prev.Epi.Res = other
							uses[prev.Dst]--
							prev.Dst = op.Dst
							continue
						}
					}
				case OpReLU:
					if op.Srcs[0] == prev.Dst && !prev.Epi.ReLU && killable(prev.Dst) {
						prev.Epi.ReLU = true
						uses[prev.Dst]--
						prev.Dst = op.Dst
						continue
					}
				}
			}
		}
		ops = append(ops, op)
	}

	// Dead-op elimination, walking backwards: an op goes when nothing
	// after it reads its destination and the destination is neither kept
	// nor the output — and with it, in turn, the ops that fed only it (a
	// backbone lowered whole for a rectifier that reads one hidden block
	// loses its logits conv here). An in-place op (AddBias) reads what it
	// writes, so it stands or falls with its value's later readers.
	live := make([]bool, len(q.vals))
	for i := range q.vals {
		live[i] = q.vals[i].keep
	}
	live[q.output] = true
	kept := len(ops)
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.Dst >= 0 && !live[op.Dst] {
			continue
		}
		for _, s := range op.Srcs {
			live[s] = true
		}
		if op.Epi.Res >= 0 {
			live[op.Epi.Res] = true
		}
		kept--
		ops[kept] = op
	}
	ops = ops[kept:]
	q.ops = ops

	// Dead-value elimination: anything no surviving op reads or writes —
	// and that is not an input, kept, or the output — loses its buffer.
	// maxWidth is re-derived over live values so staging tiles (and the
	// EPC budget math built on MaxWidth) shrink with the program.
	alive := make([]bool, len(q.vals))
	for i := range q.vals {
		if q.vals[i].input >= 0 || q.vals[i].keep {
			alive[i] = true
		}
	}
	alive[q.output] = true
	for i := range ops {
		op := &ops[i]
		if op.Dst >= 0 {
			alive[op.Dst] = true
		}
		for _, s := range op.Srcs {
			alive[s] = true
		}
		if op.Epi.Res >= 0 {
			alive[op.Epi.Res] = true
		}
	}
	q.maxWidth = 0
	for i := range q.vals {
		q.vals[i].dead = !alive[i]
		if alive[i] && q.vals[i].width > q.maxWidth {
			q.maxWidth = q.vals[i].width
		}
	}
	return &q
}

// readers returns, per value, how many times the program's ops read it —
// as a source or as a fused residual.
func (p *Program) readers() []int {
	uses := make([]int, len(p.vals))
	for i := range p.ops {
		for _, s := range p.ops[i].Srcs {
			uses[s]++
		}
		if p.ops[i].Epi.Res >= 0 {
			uses[p.ops[i].Epi.Res]++
		}
	}
	return uses
}

// Chaining. A tiled machine flushes every op's output to sealed untrusted
// memory and reads it back for the ops that consume it. When a product op
// (MatMul, SpMM, Attn) is followed by a MatMul that is the only reader of
// its output, that round trip buys nothing: the MatMul is row-local, so a
// tiled machine runs the pair in bands of chainBand rows — the product
// finishes a band through its epilogue into an enclave-resident band
// scratch (at int8, as codes under the chained value's calibrated
// scales), the MatMul multiplies the band by its weight (at int8, its
// plan-time folded codes) into the staging tile — and flushes only the
// MatMul's output. Every row goes through the same operations in the same
// order, so a chained machine is bit-identical to an unchained one.
// Direct machines do not chain: their values are resident anyway.

// chainBand is the height of a chained pair's band scratch (a shorter
// tile's height when it is shorter): tall enough that each band's two
// kernel entries cost next to nothing — on a 20 000-row pubmed-shaped
// rectifier on a 2-vCPU Xeon, bands of 32 rows ran the int8 pass 4–6 %
// slower than no chaining and bands of 128 within 2 % (fp64 8–12 %
// faster) — and small enough to stay cache-resident: 4 KB of codes or
// 32 KB of fp64 for a 32-column value.
const chainBand = 128

// chained returns the program a tiled machine runs: p itself when no value
// chains, otherwise a copy whose chained values are marked. A value chains
// when a product op writes it, the op right after is a MatMul that reads
// it, and nothing else does — no other op, no fused residual, no halo op,
// so it is no halo source, and a halo destination is written by its halo
// op, not by a product — and it is neither kept, nor the output, nor an
// input. A MatMul that consumes a chained value stages its own output, so
// it chains nothing in turn. A chained value keeps its value-table entry
// and its scales but gets no slot, and Machine.Value refuses it.
func (p *Program) chained() *Program {
	uses := p.readers()
	q := p
	for i := 0; i+1 < len(p.ops); i++ {
		op, next := &p.ops[i], &p.ops[i+1]
		v := op.Dst
		if !op.Kind.hasEpilogue() || next.Kind != OpMatMul || next.Srcs[0] != v ||
			uses[v] != 1 || v == p.output || p.vals[v].keep || p.vals[v].input >= 0 {
			continue
		}
		if q == p {
			c := *p
			c.vals = append([]value(nil), p.vals...)
			q = &c
		}
		q.vals[v].chained = true
		q.chainWidth = max(q.chainWidth, p.vals[v].width)
		i++
	}
	return q
}

// chains reports whether op i's output is chained into the MatMul at i+1.
func (p *Program) chains(i int) bool {
	d := p.ops[i].Dst
	return d >= 0 && p.vals[d].chained
}

// bandBytes is the band scratch a tiled machine of the program holds at
// tile height tileRows and element type e: as many rows of its widest
// chained value as a band can have, chainBand or the whole tile.
func (p *Program) bandBytes(tileRows int, e Elem) int64 {
	return int64(min(chainBand, tileRows)) * int64(p.chainWidth) * int64(e.Size())
}

// TileRowsWithin returns the tallest tile height at which a tiled machine
// of the program at element type e keeps TileBytes within budget — the
// staging tile, the attention coefficient row and the chaining band
// scratch together — or 0 when not even one row fits.
func (p *Program) TileRowsWithin(budget int64, e Elem) int {
	es := int64(e.Size())
	row, chain := int64(p.maxWidth)*es, int64(p.chained().chainWidth)*es
	free := budget - int64(p.maxAttnRow())*8
	if full := free - chainBand*chain; full >= chainBand*row {
		return int(full / row) // bands of chainBand rows
	}
	return int(max(free, 0) / (row + chain)) // one band per tile
}
