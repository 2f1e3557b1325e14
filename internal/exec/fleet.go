package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"gnnvault/internal/mat"
)

// Fleet synchronisation for sharded execution. A partitioned vault runs
// one machine per shard, each inside its own enclave, and the shards'
// halo ops read each other's spill buffers directly — the simulation of
// a sealed activation exchange between enclaves. Correctness needs only
// two ordering guarantees, both provided by one reusable barrier: no
// shard reads across the fleet before every peer has bound its views
// (the entry barrier in Run), and no halo op gathers before every peer
// has finished the ops preceding it (the barrier before runHalo — programs
// are lowered with identical op sequences, so "my halo op i" implies
// "your value from op < i is complete"). Values are written exactly once
// per run, so no further synchronisation is needed: a shard that races
// ahead only writes values no peer reads anymore.
//
// The barrier is also the fleet's failure domain. A shard whose ECALL
// never starts (a lost enclave) never arrives, which would strand its
// peers forever — so the barrier is poisonable: Abort wakes every waiter
// and fails every later wait with the abort cause, each machine unwinds
// its run (no gather ever reads a half-written value, because unwinding
// happens only at barrier points and passing a barrier proves every peer
// completed the ops before it), and Reset re-arms the same fleet for the
// next pass.

// ErrFleetAborted is wrapped into the error every shard of an aborted
// fleet pass unwinds with, alongside the abort cause — a peer that only
// saw the poisoned barrier reports both "the pass was aborted" and why.
var ErrFleetAborted = errors.New("exec: fleet pass aborted")

// fleetAbort carries the abort cause through the panic that unwinds a
// machine's op loop when a barrier wait fails; RunShard recovers it.
type fleetAbort struct{ cause error }

// barrier is a reusable counting barrier. Each wait blocks until all n
// parties arrive; the phase counter makes it safely reusable because a
// party cannot start its k+1-th wait before its k-th completed, so all
// parties always sit in the same phase. A non-nil cause poisons the
// barrier: every current and future wait fails with it until reset.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	phase uint64
	cause error
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) wait() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cause != nil {
		return b.cause
	}
	ph := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return nil
	}
	for b.phase == ph && b.cause == nil {
		b.cond.Wait()
	}
	if b.phase == ph {
		// Woken by poison before the phase completed: withdraw this
		// arrival so reset sees a consistent count.
		b.count--
		return b.cause
	}
	return nil
}

// poison marks the barrier failed (first cause wins) and wakes every
// waiter.
func (b *barrier) poison(cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cause == nil {
		b.cause = cause
		b.cond.Broadcast()
	}
}

// reset re-arms a (possibly poisoned) barrier for the next round. The
// caller must have joined every party of the aborted round first.
func (b *barrier) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cause = nil
	b.count = 0
}

// Fleet couples one machine per shard of a partitioned program so their
// halo ops can exchange boundary activations. All shards of a round must
// run concurrently (RunShard from one goroutine per shard — the per-
// shard ECALL bodies); a shard run alone would wait forever on the
// barrier. A fleet handles one round at a time; the caller joins every
// RunShard before starting the next.
type Fleet struct {
	machines []*Machine
	bar      *barrier
}

// NewFleet wires the shard machines into a fleet: validates that their
// programs synchronise identically (same op-kind sequence, hence the
// same barrier calls per run), that every halo slot addresses a real
// peer row, and that all machines share an element type; then installs
// the peer table and barrier into each machine. Machines may belong to
// at most one fleet. A fleet of more than one machine rejects programs
// containing OpAttn: the op gathers two values (t and z) through its
// structure, and there is no halo lowering for that yet — a shard would
// read rows it does not hold. A one-machine fleet holds every row and has
// no peer to gather from, so it runs any program.
func NewFleet(machines []*Machine) (*Fleet, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("exec: fleet of zero machines")
	}
	for s, m := range machines {
		if err := validateFleetMachine(machines, s, m); err != nil {
			return nil, err
		}
	}
	f := &Fleet{machines: machines, bar: newBarrier(len(machines))}
	for _, m := range machines {
		m.peers = machines
		m.sync = f.bar.wait
	}
	return f, nil
}

// validateFleetMachine checks machine m as shard s of the fleet: not yet
// fleet-bound, free of attention ops unless it is the fleet's only
// machine, same element type and op-kind sequence as shard 0, and every
// halo slot in range of its peer.
func validateFleetMachine(machines []*Machine, s int, m *Machine) error {
	ref := machines[0]
	if m.peers != nil {
		return fmt.Errorf("exec: shard %d machine already belongs to a fleet", s)
	}
	if m.elem != ref.elem {
		return fmt.Errorf("exec: shard %d element type %s != shard 0 %s", s, m.elem, ref.elem)
	}
	if len(m.prog.ops) != len(ref.prog.ops) {
		return fmt.Errorf("exec: shard %d has %d ops, shard 0 has %d — shards must lower identically", s, len(m.prog.ops), len(ref.prog.ops))
	}
	for i := range m.prog.ops {
		if m.prog.ops[i].Kind != ref.prog.ops[i].Kind {
			return fmt.Errorf("exec: shard %d op %d is %s, shard 0 has %s — shards must lower identically", s, i, m.prog.ops[i].Kind, ref.prog.ops[i].Kind)
		}
		if m.prog.ops[i].Kind == OpAttn && len(machines) > 1 {
			return fmt.Errorf("exec: shard %d op %d is %s, which has no halo lowering yet", s, i, OpAttn)
		}
	}
	for i := range m.prog.ops {
		op := &m.prog.ops[i]
		if op.Kind != OpHalo {
			continue
		}
		for _, sl := range op.Halo {
			if sl.Shard < 0 || sl.Shard >= len(machines) {
				return fmt.Errorf("exec: shard %d halo slot names shard %d of %d", s, sl.Shard, len(machines))
			}
			if sl.Row < 0 || sl.Row >= machines[sl.Shard].prog.MaxRows {
				return fmt.Errorf("exec: shard %d halo slot row %d outside peer %d's %d rows", s, sl.Row, sl.Shard, machines[sl.Shard].prog.MaxRows)
			}
		}
	}
	return nil
}

// Abort poisons the fleet's barrier: every shard blocked at (or later
// arriving at) a barrier unwinds its RunShard with an error wrapping
// ErrFleetAborted and the given cause, instead of deadlocking on a peer
// that will never arrive. The first cause wins; nil is recorded as a
// bare ErrFleetAborted. Safe from any goroutine — including one watching
// a context deadline. After every RunShard of the aborted pass has
// returned, Reset re-arms the fleet.
func (f *Fleet) Abort(cause error) {
	if cause == nil {
		f.bar.poison(ErrFleetAborted)
		return
	}
	f.bar.poison(fmt.Errorf("%w: %w", ErrFleetAborted, cause))
}

// Reset re-arms the fleet for the next pass after an aborted one. The
// caller must have joined every RunShard of the aborted pass first; the
// machines, their buffers and the peer table are untouched, so the fleet
// serves the next pass as if the abort never happened.
func (f *Fleet) Reset() {
	f.bar.reset()
}

// Shards returns the fleet's shard count.
func (f *Fleet) Shards() int { return len(f.machines) }

// Machine returns shard s's machine (for Value/Output reads and
// accounting; it stays owned by the fleet).
func (f *Fleet) Machine(s int) *Machine { return f.machines[s] }

// RunShard executes shard s's machine over its full shard height. It
// must be called concurrently for every shard of the fleet — typically
// from inside each shard enclave's ECALL body — and blocks at the fleet
// barriers until the peers catch up. Arguments and result are exactly
// Machine.Run's, over the shard's local rows; labels receives the
// shard's rows of the global label vector, so passing labels[lo:hi] per
// shard stitches the full result with no extra copy.
//
// When the pass is aborted (Fleet.Abort — a peer's enclave lost, a
// deadline expired) RunShard returns a nil matrix and an error wrapping
// ErrFleetAborted and the abort cause: the shard unwinds at its next
// barrier instead of deadlocking on a peer that will never arrive. A
// shard that had already passed its last barrier may still return its
// completed output; the caller discards the pass either way.
//
// RunShard keeps no clock: the shard enclave's Ecall bills the body's
// thread CPU time, and a shard parked at a barrier consumes none.
func (f *Fleet) RunShard(s, rows int, inputs []*mat.Matrix, labels []int) (out *mat.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			fa, ok := r.(*fleetAbort)
			if !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("exec: shard %d unwound: %w", s, fa.cause)
		}
	}()
	return f.machines[s].Run(rows, inputs, labels), nil
}

// HaloSlots resolves global halo column indices to fleet slots under the
// partition's row bounds (graph.Partition.Bounds): each column maps to
// its owning shard and its row index local to that shard. Kept here so
// lowering code can build halo ops without exec importing graph's
// partition type.
func HaloSlots(bounds []int, halo []int) []HaloSlot {
	slots := make([]HaloSlot, len(halo))
	for k, c := range halo {
		s := sort.SearchInts(bounds, c+1) - 1
		slots[k] = HaloSlot{Shard: s, Row: c - bounds[s]}
	}
	return slots
}

// ShardScales derives a sharded program's per-value int8 activation
// scales from the unsharded program's calibrated scales (CalibrateScales
// output). The two programs create non-halo values in identical order —
// the sharded lowering only inserts Halo ops, and fusion folds the same
// chains — so base scales are consumed sequentially, and each halo
// destination copies its source's scales: a halo value holds rows of the
// same global activation, so its per-column quantization grid must match
// exactly for the gathered codes to be bit-identical across shards.
func ShardScales(p *Program, base [][]float64) ([][]float64, error) {
	haloSrc := make(map[int]int)
	for i := range p.ops {
		if p.ops[i].Kind == OpHalo {
			haloSrc[p.ops[i].Dst] = p.ops[i].Srcs[0]
		}
	}
	out := make([][]float64, len(p.vals))
	j := 0
	for i := range p.vals {
		if src, ok := haloSrc[i]; ok {
			out[i] = out[src]
			continue
		}
		if j >= len(base) {
			return nil, fmt.Errorf("exec: sharded program has more non-halo values than the %d base scales", len(base))
		}
		out[i] = base[j]
		j++
	}
	if j != len(base) {
		return nil, fmt.Errorf("exec: sharded program consumed %d of %d base scale vectors — programs do not correspond", j, len(base))
	}
	return out, nil
}
