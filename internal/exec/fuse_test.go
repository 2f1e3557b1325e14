package exec

import (
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// countKinds tallies the op kinds of a program.
func countKinds(p *Program) map[OpKind]int {
	m := map[OpKind]int{}
	for _, op := range p.Ops() {
		m[op.Kind]++
	}
	return m
}

// TestFusedMatchesUnfused is the fusion property the pass rests on: the
// fused program must be bit-identical to the unfused direct reference in
// every execution mode — direct and tiled at several heights.
func TestFusedMatchesUnfused(t *testing.T) {
	const n = 53
	csr := testCSR(n, 11)
	prog, inputs := buildGCNLikeProgram(t, n, csr)

	direct, err := prog.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatalf("direct machine: %v", err)
	}
	wantLabels := make([]int, n)
	wantLogits := direct.Run(n, inputs, wantLabels).Clone()

	fused := prog.Fused()
	if got, want := len(fused.Ops()), len(prog.Ops()); got >= want {
		t.Fatalf("fusion did not shrink the program: %d ops, had %d", got, want)
	}
	kinds := countKinds(fused)
	if kinds[OpAddBias]+kinds[OpReLU]+kinds[OpAdd] != 0 {
		t.Fatalf("element-wise ops survived fusion: %v", kinds)
	}
	check := func(name string, m *Machine) {
		t.Helper()
		labels := make([]int, n)
		logits := m.Run(n, inputs, labels)
		if !logits.Equal(wantLogits) {
			t.Fatalf("%s: logits differ from unfused direct reference", name)
		}
		for i := range labels {
			if labels[i] != wantLabels[i] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, i, labels[i], wantLabels[i])
			}
		}
	}
	fd, err := fused.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatalf("fused direct machine: %v", err)
	}
	check("fused direct", fd)
	for _, tile := range []int{1, 7, n} {
		m, err := fused.NewMachine(Config{TileRows: tile})
		if err != nil {
			t.Fatalf("tile=%d: %v", tile, err)
		}
		check("fused tiled", m)
	}
}

// TestFusionCutsSpillTrafficAndBuffers pins the headline accounting: on
// the GCN-like program the fused tiled machine must report at least 40%
// less spill traffic than the unfused one, and dead-value elimination must
// shrink the value-buffer footprint.
func TestFusionCutsSpillTrafficAndBuffers(t *testing.T) {
	const n = 64
	csr := testCSR(n, 12)
	prog, _ := buildGCNLikeProgram(t, n, csr)
	fused := prog.Fused()

	um, err := prog.NewMachine(Config{TileRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fused.NewMachine(Config{TileRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	before, after := um.SpillTraffic(n), fm.SpillTraffic(n)
	if after*10 > before*6 { // ≥40% reduction
		t.Fatalf("spill traffic %d → %d, want ≥40%% reduction", before, after)
	}
	if fm.BufferBytes() >= um.BufferBytes() {
		t.Fatalf("dead-value elimination did not shrink buffers: %d vs %d", fm.BufferBytes(), um.BufferBytes())
	}
}

// TestFusionKeepsPinnedValues checks Builder.Keep: a value a caller reads
// via Machine.Value must survive fusion with the same contents even when
// its only in-program consumer could absorb it.
func TestFusionKeepsPinnedValues(t *testing.T) {
	const n = 17
	csr := testCSR(n, 13)
	rng := rand.New(rand.NewSource(21))
	w1 := randMat(rng, 4, 6)
	b1 := randMat(rng, 1, 6).Data
	w2 := randMat(rng, 6, 3)

	build := func(keep bool) (*Program, int) {
		b := NewBuilder(n)
		in := b.Input(4)
		v := b.MatMul(in, w1)
		v = b.SpMM(csr, v)
		v = b.AddBias(v, b1)
		hidden := b.ReLU(v)
		if keep {
			b.Keep(hidden)
		}
		out := b.MatMul(hidden, w2)
		b.Argmax(out)
		return b.Build(), hidden
	}

	ref, hid := build(false)
	rm, err := ref.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := randMat(rng, n, 4)
	rm.Run(n, []*mat.Matrix{x}, nil)
	wantHidden := rm.Value(hid).Clone()

	kept, khid := build(true)
	fused := kept.Fused()
	// The ReLU feeding the kept value must still fold (its *input* is
	// free), but the kept value itself must stay materialised.
	if kinds := countKinds(fused); kinds[OpAddBias] != 0 {
		t.Fatalf("bias survived fusion: %v", kinds)
	}
	fm, err := fused.NewMachine(Config{TileRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	fm.Run(n, []*mat.Matrix{x}, nil)
	if !fm.Value(khid).Equal(wantHidden) {
		t.Fatal("kept hidden embedding differs after fusion")
	}

	// Without Keep, the same value is legal to eliminate when tiling is
	// off the table for it — here it still feeds the second MatMul, so it
	// must stay alive either way; the pinned variant just guarantees it.
	unpinned, _ := build(false)
	if got := unpinned.Fused().MaxWidth(); got > kept.Fused().MaxWidth() {
		t.Fatalf("unpinned fused MaxWidth %d > pinned %d", got, kept.Fused().MaxWidth())
	}
}

// TestFusionEliminatesUnreadOps checks dead-op elimination: with the
// hidden value named the output, the conv lowered after it feeds nothing
// — its product, aggregation and in-place bias all go, last to first —
// the hidden value keeps its bits on direct and tiled machines alike, a
// Keep on the tail brings every op back, and Machine.Value refuses a
// value the program no longer computes.
func TestFusionEliminatesUnreadOps(t *testing.T) {
	const n = 17
	csr := testCSR(n, 13)
	rng := rand.New(rand.NewSource(22))
	w1 := randMat(rng, 4, 6)
	b1 := randMat(rng, 1, 6).Data
	w2 := randMat(rng, 6, 3)
	b2 := randMat(rng, 1, 3).Data

	build := func(keepTail bool) (p *Program, hidden, tail int) {
		b := NewBuilder(n)
		v := b.MatMul(b.Input(4), w1)
		v = b.SpMM(csr, v)
		v = b.AddBias(v, b1)
		hidden = b.ReLU(v)
		tail = b.MatMul(hidden, w2)
		tail = b.SpMM(csr, tail)
		tail = b.AddBias(tail, b2)
		if keepTail {
			b.Keep(tail)
		}
		b.Output(hidden)
		return b.Build(), hidden, tail
	}

	x := randMat(rng, n, 4)
	whole, hid, _ := build(true)
	wm, err := whole.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := wm.Run(n, []*mat.Matrix{x}, nil).Clone()
	if got := len(whole.Fused().Ops()); got != 4 {
		t.Fatalf("kept tail: %d fused ops, want 4", got)
	}

	prog, hid2, tail := build(false)
	if hid2 != hid {
		t.Fatal("builds disagree on value ids")
	}
	fused := prog.Fused()
	if got := len(fused.Ops()); got != 2 {
		t.Fatalf("unread tail: %d fused ops %v, want the hidden conv's 2", got, countKinds(fused))
	}
	if fused.MaxWidth() != 6 {
		t.Fatalf("MaxWidth %d still counts eliminated values", fused.MaxWidth())
	}
	for _, cfg := range []Config{{Workers: 1}, {TileRows: 5}} {
		m, err := fused.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out := m.Run(n, []*mat.Matrix{x}, nil); !out.Equal(want) || out != m.Value(hid) {
			t.Fatalf("tile rows %d: output differs from the whole program's hidden value", cfg.TileRows)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Machine.Value on an eliminated value did not panic")
				}
			}()
			m.Value(tail)
		}()
	}
}
