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
	uses := make([]int, len(q.vals))
	for i := range p.ops {
		for _, s := range p.ops[i].Srcs {
			uses[s]++
		}
		if p.ops[i].Epi.Res >= 0 {
			uses[p.ops[i].Epi.Res]++
		}
	}
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
