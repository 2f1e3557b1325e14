package exec

import (
	"fmt"
	"unsafe"
)

// Buffer assignment by liveness. A machine does not give every value its
// own buffer: values share slots, the way a DL compiler's memory planner
// shares them, and BufferBytes charges the slots — what is live at once,
// not everything the program computes. One sweep over the (fused) op list
// plans both element types and both plan modes; a slot's elements are
// priced at the machine's element width afterwards.
//
// A value's live range runs from the op that first writes it to the last
// op that reads it, a fused Epi.Res counting as a read. When a value is
// first written it takes a free slot — one whose occupant was last read at
// an earlier op, so an op's destination never shares storage with its own
// operands — choosing the smallest that fits; when none fits it grows the
// largest free one; only when no slot is free does it open a new one.
// Slot sizes are final after the sweep, and the slots are allocated then.
//
// Four kinds of value break the rule:
//   - Inputs are never pooled: they alias the caller's matrices (an int8
//     machine's boundary codes persist on their own for SetInputEpoch).
//   - Kept values (Builder.Keep) and the output are pinned: their slots
//     never return to the pool, so Machine.Value reads them after Run.
//   - Halo sources and destinations, and any value a halo destination
//     hosts, get dedicated slots that neither come from nor return to the
//     pool. A hosted producer writes the destination before the halo op
//     runs, and peers copy from these buffers after this shard has moved
//     on to later ops.
//   - Chained values (fuse.go) get no slot: a tiled machine hands them to
//     their MatMul band by band through its band scratch.
//
// Every other value's storage is reused once its last reader has run, so
// after Run it holds whatever came later: Machine.Value refuses it.

// bufferPlan is the planner's answer: per value the slot that holds it
// (-1 for inputs, dead and chained values; a value hosted in a halo
// destination's buffer names its host's), and per slot its size in
// elements.
type bufferPlan struct {
	slot  []int
	sizes []int
}

// elems returns the element count of value v's buffer: MaxRows rows plus
// a halo destination's gathered rows.
func (p *Program) elems(v int) int { return (p.MaxRows + p.vals[v].extra) * p.vals[v].width }

// planBuffers sweeps the op list once and assigns every buffered value a
// slot. host is haloHosts(): a hosted value lives in its host's slot, which
// its producer therefore claims.
func (p *Program) planBuffers(host []int) bufferPlan {
	owner := func(v int) int {
		if host[v] >= 0 {
			return host[v]
		}
		return v
	}
	// last ends each owner's live range — the pinned ones' at the end of
	// the run; dedicated owners stay out of the pool altogether.
	last := make([]int, len(p.vals))
	dedicated := make([]bool, len(p.vals))
	for v := range p.vals {
		if p.vals[v].keep || v == p.output {
			last[v] = len(p.ops)
		}
	}
	use := func(v, i int) {
		if v >= 0 {
			last[owner(v)] = max(last[owner(v)], i)
		}
	}
	for i := range p.ops {
		op := &p.ops[i]
		for _, s := range op.Srcs {
			use(s, i)
		}
		use(op.Epi.Res, i)
		use(op.Dst, i)
		if op.Kind == OpHalo {
			dedicated[owner(op.Srcs[0])], dedicated[owner(op.Dst)] = true, true
		}
	}

	bp := bufferPlan{slot: make([]int, len(p.vals))}
	for v := range bp.slot {
		bp.slot[v] = -1
	}
	// The pool: busy[k] is the last op that reads slot k's occupant. An
	// owner claims its slot at the op that first writes it — a hosted
	// value's producer, for its host.
	var busy []int
	for i := range p.ops {
		if p.ops[i].Dst < 0 {
			continue
		}
		v := owner(p.ops[i].Dst)
		if dedicated[v] || bp.slot[v] >= 0 || p.vals[v].chained {
			continue
		}
		// A chained MatMul (fuse.go) writes its destination while its
		// producer, op i-1, still reads: the slot must be free there.
		at := i
		if i > 0 && p.chains(i-1) {
			at = i - 1
		}
		need, best, largest := p.elems(v), -1, -1
		for k, size := range bp.sizes {
			if busy[k] >= at {
				continue
			}
			if size >= need && (best < 0 || size < bp.sizes[best]) {
				best = k
			}
			if largest < 0 || size > bp.sizes[largest] {
				largest = k
			}
		}
		switch {
		case best >= 0:
		case largest >= 0:
			best = largest
			bp.sizes[best] = need
		default:
			best = len(bp.sizes)
			bp.sizes = append(bp.sizes, need)
			busy = append(busy, 0)
		}
		busy[best] = last[v]
		bp.slot[v] = best
	}
	// Dedicated slots follow the pool's.
	for v := range p.vals {
		if dedicated[v] && p.vals[v].input < 0 {
			bp.slot[v] = len(bp.sizes)
			bp.sizes = append(bp.sizes, p.elems(v))
		}
	}
	for v, h := range host {
		if h >= 0 {
			bp.slot[v] = bp.slot[h]
		}
	}
	return bp
}

// allocSlots allocates the plan's slots at element type T and returns,
// per value, the elements it owns — the first of its slot, which for a
// value hosted in a halo destination are the host's first MaxRows rows —
// once checkStorage has proved them; nil for inputs, dead and chained
// values.
func allocSlots[T any](p *Program, bp bufferPlan, host []int) ([][]T, error) {
	slots := make([][]T, len(bp.sizes))
	for k, n := range bp.sizes {
		slots[k] = make([]T, n)
	}
	data := make([][]T, len(p.vals))
	for v, k := range bp.slot {
		if k >= 0 {
			data[v] = slots[k][:p.elems(v)]
		}
	}
	return data, p.checkStorage(host, func(v int) (uintptr, uintptr) { return sliceStorage(data[v]) })
}

// checkStorage proves, once per plan, that the buffers NewMachine handed
// out never overlap live storage: at every op the destination's memory is
// disjoint from every source, from the residual, and from every value
// live across the op. The liveness is recomputed here, backwards, from
// the op list, independently of the planner; only the designed alias — a
// halo destination over the value it hosts — is exempt. base and n give a
// value's storage address and byte length. A violation is a planner bug.
func (p *Program) checkStorage(host []int, storage func(v int) (base, n uintptr)) error {
	live := make([]bool, len(p.vals))
	for v := range p.vals {
		live[v] = p.vals[v].keep || v == p.output
	}
	for i := range p.ops {
		if op := &p.ops[i]; op.Kind == OpHalo {
			live[op.Srcs[0]], live[op.Dst] = true, true // peers read them late
		}
	}
	overlap := func(a, b int) bool {
		if p.vals[a].input >= 0 || p.vals[b].input >= 0 || a == b || host[b] == a || host[a] == b {
			return false
		}
		ab, an := storage(a)
		bb, bn := storage(b)
		return an > 0 && bn > 0 && ab < bb+bn && bb < ab+an
	}
	for i := len(p.ops) - 1; i >= 0; i-- {
		op := &p.ops[i]
		// d is the value op i writes to memory: a chained value has none,
		// and the MatMul it chains writes its destination while op i still
		// reads its operands (fuse.go).
		d := op.Dst
		if p.chains(i) {
			d = p.ops[i+1].Dst
		}
		if op.Dst >= 0 {
			for v, l := range live {
				if l && overlap(d, v) {
					return fmt.Errorf("exec: buffer plan puts op %d's %s destination %d over value %d, live across it", i, op.Kind, d, v)
				}
			}
			if op.Kind != OpAddBias { // in place: it reads what it writes
				live[op.Dst] = false
			}
		}
		for _, s := range op.Srcs {
			if d >= 0 && overlap(d, s) {
				return fmt.Errorf("exec: buffer plan puts op %d's %s destination %d over its source %d", i, op.Kind, d, s)
			}
			live[s] = true
		}
		if r := op.Epi.Res; r >= 0 {
			if overlap(d, r) {
				return fmt.Errorf("exec: buffer plan puts op %d's %s destination %d over its residual %d", i, op.Kind, d, r)
			}
			live[r] = true
		}
	}
	return nil
}

// keepAll returns a copy of the program with every value kept, so that a
// machine planned from it shares no slot between values and every value
// is readable after Run — what CalibrateScales reads.
func (p *Program) keepAll() *Program {
	q := *p
	q.vals = append([]value(nil), p.vals...)
	for i := range q.vals {
		q.vals[i].keep = !q.vals[i].dead
	}
	return &q
}

// sliceStorage returns the address and byte length of a buffer's elements.
func sliceStorage[T any](s []T) (base, n uintptr) {
	if len(s) == 0 {
		return 0, 0
	}
	var zero T
	return uintptr(unsafe.Pointer(&s[0])), uintptr(len(s)) * unsafe.Sizeof(zero)
}
