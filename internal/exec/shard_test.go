package exec

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// gcnParams are the shared weights of the two-layer GCN used by the
// sharded-execution tests: every shard program and the unsharded
// reference consume the same matrices.
type gcnParams struct {
	w1, w2 *mat.Matrix
	b1, b2 []float64
}

func newGCNParams(rng *rand.Rand, d0, h, classes int) *gcnParams {
	return &gcnParams{
		w1: randMat(rng, d0, h),
		b1: randMat(rng, 1, h).Data,
		w2: randMat(rng, h, classes),
		b2: randMat(rng, 1, classes).Data,
	}
}

// buildGCN lowers the two-layer GCN over the given operator. With halo
// enabled, a Halo op is inserted between each MatMul and its SpMM — the
// sharded lowering shape — using the same slots every layer (the halo
// columns are graph-determined). Fused, like the production compilers.
func buildGCN(maxRows, d0 int, csr *graph.NormAdjacency, pr *gcnParams, slots []HaloSlot, withHalo bool) *Program {
	b := NewBuilder(maxRows)
	in := b.Input(d0)
	v := b.MatMul(in, pr.w1)
	if withHalo {
		v = b.Halo(v, slots)
	}
	v = b.SpMM(csr, v)
	v = b.AddBias(v, pr.b1)
	v = b.ReLU(v)
	v = b.MatMul(v, pr.w2)
	if withHalo {
		v = b.Halo(v, slots)
	}
	v = b.SpMM(csr, v)
	v = b.AddBias(v, pr.b2)
	b.Argmax(v)
	return b.Build().Fused()
}

// buildShardProgs lowers one program per shard of the partition. Halo
// ops are emitted on every shard as soon as any shard has a halo column,
// so the fleet's barrier calls stay uniform.
func buildShardProgs(part *graph.Partition, d0 int, pr *gcnParams) []*Program {
	withHalo := part.HaloCols() > 0
	progs := make([]*Program, part.Shards())
	for s := range progs {
		slots := HaloSlots(part.Bounds, part.Halo[s])
		progs[s] = buildGCN(part.Rows(s), d0, part.CSR[s], pr, slots, withHalo)
	}
	return progs
}

// newTestFleet plans one machine per shard under cfg and wires them into
// a fleet.
func newTestFleet(t testing.TB, progs []*Program, cfg func(s int) Config) *Fleet {
	t.Helper()
	machines := make([]*Machine, len(progs))
	for s := range progs {
		m, err := progs[s].NewMachine(cfg(s))
		if err != nil {
			t.Fatalf("shard %d machine: %v", s, err)
		}
		machines[s] = m
	}
	fleet, err := NewFleet(machines)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// fleetPass runs one pass of the fleet over x, every shard on its own
// goroutine. If skip >= 0 that shard never calls RunShard — modelling an
// enclave lost before its ECALL — and the pass is instead aborted with
// cause once the survivors have launched. Returns per-shard outputs and
// errors.
func fleetPass(fleet *Fleet, part *graph.Partition, x *mat.Matrix, labels []int, skip int, cause error) ([]*mat.Matrix, []error) {
	shards := fleet.Shards()
	outs := make([]*mat.Matrix, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if s == skip {
			continue
		}
		s := s
		lo, hi := part.Bounds[s], part.Bounds[s+1]
		xs := &mat.Matrix{}
		x.ViewRows(lo, hi, xs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[s], errs[s] = fleet.RunShard(s, hi-lo, []*mat.Matrix{xs}, labels[lo:hi])
		}()
	}
	if skip >= 0 {
		fleet.Abort(cause)
	}
	wg.Wait()
	return outs, errs
}

// runFleetPass runs one pass that must succeed on every shard.
func runFleetPass(t testing.TB, fleet *Fleet, part *graph.Partition, x *mat.Matrix, labels []int) []*mat.Matrix {
	t.Helper()
	outs, errs := fleetPass(fleet, part, x, labels, -1, nil)
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return outs
}

// runFleet plans one machine per shard under cfg, wires the fleet, and
// runs every shard concurrently over its row range of x; labels is the
// global label vector, stitched by row-range slicing. Returns the
// per-shard outputs.
func runFleet(t testing.TB, part *graph.Partition, progs []*Program, cfg func(s int) Config, x *mat.Matrix, labels []int) []*mat.Matrix {
	t.Helper()
	return runFleetPass(t, newTestFleet(t, progs, cfg), part, x, labels)
}

// checkSharded asserts the fleet's stitched outputs and labels are
// bit-identical to the unsharded reference.
func checkSharded(t *testing.T, name string, part *graph.Partition, outs []*mat.Matrix, labels []int, want *mat.Matrix, wantLabels []int) {
	t.Helper()
	for s, out := range outs {
		lo, hi := part.Bounds[s], part.Bounds[s+1]
		if out.Rows != hi-lo || out.Cols != want.Cols {
			t.Fatalf("%s: shard %d output %s, want %dx%d", name, s, out.Shape(), hi-lo, want.Cols)
		}
		for i := 0; i < out.Rows*out.Cols; i++ {
			w := want.Data[lo*want.Cols+i]
			if math.Float64bits(out.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: shard %d element %d: %g != reference %g", name, s, i, out.Data[i], w)
			}
		}
	}
	for i, l := range labels {
		if l != wantLabels[i] {
			t.Fatalf("%s: label %d: %d != reference %d", name, i, l, wantLabels[i])
		}
	}
}

// TestShardedExecBitIdentical pins the fleet's core contract: sharded
// execution at every shard count, precision tier and execution mode is
// bit-identical to the single-machine run — outputs and argmax labels.
func TestShardedExecBitIdentical(t *testing.T) {
	const n, d0, h, classes = 61, 5, 7, 4
	rng := rand.New(rand.NewSource(11))
	pr := newGCNParams(rng, d0, h, classes)
	csr := testCSR(n, 3)
	x := randMat(rng, n, d0)

	ref := buildGCN(n, d0, csr, pr, nil, false)
	refMach, err := ref.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := make([]int, n)
	want := refMach.Run(n, []*mat.Matrix{x}, wantLabels).Clone()

	scales, _, err := CalibrateScales(ref, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatal(err)
	}
	refI8, err := ref.NewMachine(Config{Elem: I8, Scales: scales})
	if err != nil {
		t.Fatal(err)
	}
	wantLabelsI8 := make([]int, n)
	wantI8 := refI8.Run(n, []*mat.Matrix{x}, wantLabelsI8).Clone()

	for _, shards := range []int{1, 2, 3, 4} {
		part := graph.NewPartition(csr, shards)
		progs := buildShardProgs(part, d0, pr)
		labels := make([]int, n)

		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"direct", Config{Workers: 1}},
			{"tiled", Config{TileRows: 8}},
		} {
			outs := runFleet(t, part, progs, func(int) Config { return mode.cfg }, x, labels)
			checkSharded(t, mode.name, part, outs, labels, want, wantLabels)
		}

		outs := runFleet(t, part, progs, func(s int) Config {
			ss, err := ShardScales(progs[s], scales)
			if err != nil {
				t.Fatalf("shard %d scales: %v", s, err)
			}
			return Config{Elem: I8, Scales: ss, Workers: 1}
		}, x, labels)
		checkSharded(t, "int8", part, outs, labels, wantI8, wantLabelsI8)
	}
}

// TestShardedHaloAccounting pins the halo/spill pricing: HaloBytes sums
// slot×width bytes per halo op at the element width, a halo
// destination's extra rows join SpillTraffic, and a gathered value is
// hosted in its destination's first rows — one buffer, counted once in
// BufferBytes, not a second one copied over every run.
func TestShardedHaloAccounting(t *testing.T) {
	const n, d0, h, classes = 40, 3, 6, 4
	rng := rand.New(rand.NewSource(5))
	pr := newGCNParams(rng, d0, h, classes)
	csr := testCSR(n, 9)
	part := graph.NewPartition(csr, 2)
	if part.HaloCols() == 0 {
		t.Fatal("test graph produced no halo columns")
	}
	progs := buildShardProgs(part, d0, pr)
	for s, p := range progs {
		m, err := p.NewMachine(Config{TileRows: 8})
		if err != nil {
			t.Fatal(err)
		}
		nh := len(part.Halo[s])
		// Two halo ops per program (one per layer), widths h and classes.
		wantHalo := int64(nh) * int64(h+classes) * 8
		if got := m.HaloBytes(); got != wantHalo {
			t.Fatalf("shard %d HaloBytes %d, want %d", s, got, wantHalo)
		}
		rows := part.Rows(s)
		// SpillTraffic counts the halo rows of each halo destination on
		// top of the local rows of every op output.
		spill := m.SpillTraffic(rows)
		base := int64(0)
		for _, op := range p.Ops() {
			if op.Dst >= 0 {
				base += int64(rows) * int64(p.vals[op.Dst].width) * 8
			}
		}
		if spill != base+wantHalo {
			t.Fatalf("shard %d SpillTraffic %d, want %d local + %d halo", s, spill, base, wantHalo)
		}
	}
	machines := make([]*Machine, len(progs))
	for s, p := range progs {
		m, err := p.NewMachine(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		machines[s] = m
		wantBuf := int64(0)
		for _, op := range p.Ops() {
			switch {
			case op.Kind == OpHalo:
				src, dst := m.spill[op.Srcs[0]], m.spill[op.Dst]
				if &src.Data[0] != &dst.Data[0] || src.Rows != p.MaxRows {
					t.Fatalf("shard %d: halo source %d is not the first %d rows of its destination", s, op.Srcs[0], p.MaxRows)
				}
				wantBuf += int64(p.MaxRows+len(op.Halo)) * int64(p.vals[op.Dst].width) * 8
			case op.Dst >= 0 && m.host[op.Dst] < 0:
				wantBuf += int64(p.MaxRows) * int64(p.vals[op.Dst].width) * 8
			}
		}
		if got := m.BufferBytes(); got != wantBuf {
			t.Fatalf("shard %d BufferBytes %d, want %d (halo sources counted in their destinations)", s, got, wantBuf)
		}
	}
	if _, err := NewFleet(machines); err != nil {
		t.Fatal(err)
	}
}

// TestFleetValidation covers NewFleet's refusal cases and the bare-
// machine halo guard.
func TestFleetValidation(t *testing.T) {
	const n, d0, h, classes = 30, 3, 5, 3
	rng := rand.New(rand.NewSource(2))
	pr := newGCNParams(rng, d0, h, classes)
	csr := testCSR(n, 4)
	part := graph.NewPartition(csr, 2)
	progs := buildShardProgs(part, d0, pr)

	if _, err := NewFleet(nil); err == nil {
		t.Fatal("empty fleet accepted")
	}

	mach := func(s int, cfg Config) *Machine {
		m, err := progs[s].NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Mismatched op sequences: one shard lowered without halo ops.
	plain := buildGCN(part.Rows(1), d0, part.CSR[1], pr, nil, false)
	pm, err := plain.NewMachine(Config{Workers: 1})
	if err == nil {
		_, err = NewFleet([]*Machine{mach(0, Config{Workers: 1}), pm})
	}
	if err == nil {
		t.Fatal("fleet with mismatched op sequences accepted")
	}

	// Mismatched element types.
	ones := make([][]float64, len(progs[1].vals))
	for i, v := range progs[1].vals {
		ones[i] = make([]float64, v.width)
		for j := range ones[i] {
			ones[i][j] = 1
		}
	}
	if _, err := NewFleet([]*Machine{mach(0, Config{Workers: 1}), mach(1, Config{Elem: I8, Scales: ones, Workers: 1})}); err == nil {
		t.Fatal("fleet with mixed element types accepted")
	}

	// The attention op has no halo lowering, but a one-machine fleet has
	// no peer to gather from: it runs the attention program, bit for bit
	// as the bare machine does, while a two-machine fleet still refuses it.
	ab := NewBuilder(n)
	z := ab.MatMul(ab.Input(d0), pr.w1)
	ab.Attn(testStructure(n, 6), ab.MatMul(z, randMat(rng, h, 1)), ab.MatMul(z, randMat(rng, h, 1)), z, 0.2)
	attn := ab.Build()
	amach := func() *Machine {
		m, err := attn.NewMachine(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	in := []*mat.Matrix{randMat(rng, n, d0)}
	want := amach().Run(n, in, nil).Clone()
	one, err := NewFleet([]*Machine{amach()})
	if err != nil {
		t.Fatalf("one-machine fleet over an attention program: %v", err)
	}
	got, err := one.RunShard(0, n, in, nil)
	if err != nil {
		t.Fatalf("one-machine attention fleet: %v", err)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("one-machine attention fleet element %d: %v, want %v", i, got.Data[i], w)
		}
	}
	if _, err := NewFleet([]*Machine{amach(), amach()}); err == nil || !strings.Contains(err.Error(), "halo lowering") {
		t.Fatalf("two-machine fleet over an attention program: err = %v, want the no-halo-lowering refusal", err)
	}

	// Halo slots addressing shards or rows outside the fleet.
	for _, bad := range [][]HaloSlot{{{Shard: 5, Row: 0}}, {{Shard: 0, Row: part.Rows(0) + 7}}} {
		badProg := buildGCN(part.Rows(0), d0, part.CSR[0], pr, bad[:1], true)
		// The shard-0 CSR expects one halo column; rebuild it as a
		// single-slot operand so the program compiles, then let the
		// fleet reject the addressing.
		bm, err := badProg.NewMachine(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewFleet([]*Machine{bm}); err == nil {
			t.Fatalf("fleet accepted bad halo slot %+v", bad[0])
		}
	}

	// A machine can join only one fleet.
	a, b := mach(0, Config{Workers: 1}), mach(1, Config{Workers: 1})
	if _, err := NewFleet([]*Machine{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet([]*Machine{a, b}); err == nil {
		t.Fatal("machines joined a second fleet")
	}

	// Halo programs refuse to run outside a fleet or at partial height.
	lone := mach(0, Config{Workers: 1})
	x := randMat(rng, part.Rows(0), d0)
	mustPanicExec(t, func() { lone.Run(part.Rows(0), []*mat.Matrix{x}, nil) })
	if part.Rows(0) > 1 {
		short := &mat.Matrix{}
		x.ViewRows(0, part.Rows(0)-1, short)
		mustPanicExec(t, func() { lone.Run(part.Rows(0)-1, []*mat.Matrix{short}, nil) })
	}
}

// TestFleetAbortUnwindAndReuse pins the poisonable-barrier contract: a
// shard that never arrives (lost enclave) plus an Abort unwinds every
// peer with ErrFleetAborted wrapping the cause instead of deadlocking;
// after Reset the same fleet — and the fleet after a Replace of the dead
// shard — reproduces the baseline bit-for-bit.
func TestFleetAbortUnwindAndReuse(t *testing.T) {
	const n, d0, h, classes = 48, 4, 6, 3
	rng := rand.New(rand.NewSource(17))
	pr := newGCNParams(rng, d0, h, classes)
	csr := testCSR(n, 6)
	x := randMat(rng, n, d0)
	part := graph.NewPartition(csr, 3)
	progs := buildShardProgs(part, d0, pr)
	cfg := func(int) Config { return Config{Workers: 1} }

	fleet := newTestFleet(t, progs, cfg)
	baseLabels := make([]int, n)
	base := runFleetPass(t, fleet, part, x, baseLabels)
	want := make([]*mat.Matrix, len(base))
	for s, o := range base {
		want[s] = o.Clone()
	}

	// Shard 2 dies before its ECALL: shards 0 and 1 block on the entry
	// barrier until the abort poisons it, then unwind with the cause.
	cause := errors.New("shard 2 enclave lost")
	labels := make([]int, n)
	_, errs := fleetPass(fleet, part, x, labels, 2, cause)
	for s := 0; s < 2; s++ {
		if !errors.Is(errs[s], ErrFleetAborted) {
			t.Fatalf("shard %d error %v does not wrap ErrFleetAborted", s, errs[s])
		}
		if !errors.Is(errs[s], cause) {
			t.Fatalf("shard %d error %v does not wrap the abort cause", s, errs[s])
		}
	}

	// The poison outlives the pass until Reset: a new pass fails fast.
	_, errs = fleetPass(fleet, part, x, labels, -1, nil)
	for s, err := range errs {
		if !errors.Is(err, ErrFleetAborted) {
			t.Fatalf("pre-Reset shard %d error %v, want ErrFleetAborted", s, err)
		}
	}

	// Reset re-arms the same fleet; the next pass is bit-identical.
	fleet.Reset()
	outs := runFleetPass(t, fleet, part, x, labels)
	for s := range outs {
		for i, v := range outs[s].Data {
			if math.Float64bits(v) != math.Float64bits(want[s].Data[i]) {
				t.Fatalf("post-Reset shard %d element %d: %g != %g", s, i, v, want[s].Data[i])
			}
		}
	}
	for i, l := range labels {
		if l != baseLabels[i] {
			t.Fatalf("post-Reset label %d: %d != %d", i, l, baseLabels[i])
		}
	}

	// Replace the dead shard with a fresh machine — the recovery rejoin —
	// and the fleet is again bit-identical.
	fresh, err := progs[2].NewMachine(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Replace(2, fresh); err != nil {
		t.Fatal(err)
	}
	outs = runFleetPass(t, fleet, part, x, labels)
	for s := range outs {
		for i, v := range outs[s].Data {
			if math.Float64bits(v) != math.Float64bits(want[s].Data[i]) {
				t.Fatalf("post-Replace shard %d element %d: %g != %g", s, i, v, want[s].Data[i])
			}
		}
	}

	// Replace refusals: out-of-range shard, machine already fleet-bound.
	if err := fleet.Replace(9, fresh); err == nil {
		t.Fatal("Replace accepted an out-of-range shard")
	}
	if err := fleet.Replace(2, fleet.Machine(0)); err == nil {
		t.Fatal("Replace accepted a machine already in a fleet")
	}
}

func mustPanicExec(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// FuzzShardedExec fuzzes the sharded bit-identity contract: for fuzzed
// graph shapes, feature widths and precision tiers, running the fleet at
// every shard count in {1,2,3,4} — direct and tiled — must reproduce the
// single-machine outputs and labels bit-for-bit. CI runs this as a short
// smoke via `make fuzz-smoke`.
func FuzzShardedExec(f *testing.F) {
	f.Add(uint8(32), uint8(4), uint8(6), int64(1), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2), uint8(1))
	f.Add(uint8(57), uint8(3), uint8(5), int64(3), uint8(2))
	f.Add(uint8(7), uint8(2), uint8(8), int64(4), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw, dRaw, hRaw uint8, seed int64, modeRaw uint8) {
		n := int(nRaw)%64 + 1
		d0 := int(dRaw)%6 + 1
		h := int(hRaw)%8 + 1
		classes := int(modeRaw)%3 + 2
		elem := Elem(modeRaw % 2) // F64 or I8
		tiled := modeRaw/2%2 == 1
		rng := rand.New(rand.NewSource(seed))
		pr := newGCNParams(rng, d0, h, classes)
		csr := testCSR(n, seed)
		x := randMat(rng, n, d0)

		ref := buildGCN(n, d0, csr, pr, nil, false)
		var scales [][]float64
		refCfg := Config{Elem: elem, Workers: 1}
		if elem == I8 {
			var err error
			scales, _, err = CalibrateScales(ref, n, []*mat.Matrix{x})
			if err != nil {
				t.Fatal(err)
			}
			refCfg.Scales = scales
		}
		refMach, err := ref.NewMachine(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		wantLabels := make([]int, n)
		want := refMach.Run(n, []*mat.Matrix{x}, wantLabels).Clone()

		for shards := 1; shards <= 4; shards++ {
			part := graph.NewPartition(csr, shards)
			progs := buildShardProgs(part, d0, pr)
			labels := make([]int, n)
			cfgFn := func(s int) Config {
				cfg := Config{Elem: elem, Workers: 1}
				if tiled && part.Rows(s) > 1 {
					cfg.TileRows = part.Rows(s)/2 + 1
				}
				if elem == I8 {
					ss, err := ShardScales(progs[s], scales)
					if err != nil {
						t.Fatalf("shard %d scales: %v", s, err)
					}
					cfg.Scales = ss
				}
				return cfg
			}
			fleet := newTestFleet(t, progs, cfgFn)
			outs := runFleetPass(t, fleet, part, x, labels)
			checkSharded(t, elem.String(), part, outs, labels, want, wantLabels)

			if shards < 2 {
				continue
			}
			// Injected fault: a fuzz-chosen shard dies before its ECALL.
			// Every survivor must unwind with ErrFleetAborted (no
			// deadlock), and after Reset the same fleet must reproduce
			// the reference bit-for-bit.
			dead := int(seed%int64(shards)+int64(shards)) % shards
			cause := errors.New("injected enclave loss")
			_, errs := fleetPass(fleet, part, x, labels, dead, cause)
			for s, err := range errs {
				if s == dead {
					continue
				}
				if !errors.Is(err, ErrFleetAborted) || !errors.Is(err, cause) {
					t.Fatalf("shard %d after injected fault: %v", s, err)
				}
			}
			fleet.Reset()
			outs = runFleetPass(t, fleet, part, x, labels)
			checkSharded(t, elem.String()+"/post-fault", part, outs, labels, want, wantLabels)
		}
	})
}
