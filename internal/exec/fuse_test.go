package exec

import (
	"math/rand"
	"slices"
	"testing"

	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
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

	ref, hid := build(true) // unfused; kept so Value reads it after Run
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

// chainCase is one program of the chaining table: build lowers it —
// with halo ops between layers when halo is set, which then needs a
// one-machine fleet to run — over n rows, and chained is how many values a
// tiled machine of it chains.
type chainCase struct {
	name    string
	chained int
	inputs  []int // input widths
	build   func(b *Builder, in []int, halo bool)
}

// chainCases are the rectifier designs as core lowers them, and the
// shapes that must not chain, on the widths n, d, h, c of
// TestChainingRule.
func chainCases(n, d, h, c int) []chainCase {
	csr, st := testCSR(n, 61), testStructure(n, 62)
	rng := rand.New(rand.NewSource(63))
	w := map[[3]int]*mat.Matrix{}
	weight := func(k, rows, cols int) *mat.Matrix { // the same weights in every build
		key := [3]int{k, rows, cols}
		if w[key] == nil {
			w[key] = randMat(rng, rows, cols)
		}
		return w[key]
	}
	bias := randMat(rng, 1, max(d, h, c)).Data
	gcn := func(b *Builder, k, in, outDim int) int {
		v := b.MatMul(in, weight(k, b.width(in), outDim))
		return b.AddBias(b.SpMM(csr, v), bias[:outDim])
	}
	gat := func(b *Builder, k, in, outDim int) int {
		z := b.MatMul(in, weight(k, b.width(in), outDim))
		s, t := b.MatMul(z, weight(k+10, outDim, 1)), b.MatMul(z, weight(k+20, outDim, 1))
		return b.AddBias(b.Attn(st, s, t, z, 0.2), bias[:outDim])
	}
	sage := func(b *Builder, k, in, outDim int) int {
		mx := b.SpMM(csr, in)
		self := b.MatMul(in, weight(k, b.width(in), outDim))
		nbr := b.MatMul(mx, weight(k+10, b.width(in), outDim))
		return b.AddBias(b.Add(self, nbr), bias[:outDim])
	}
	series := func(b *Builder, in int) {
		v := b.ReLU(gcn(b, 0, in, h))
		v = b.ReLU(gcn(b, 1, v, h))
		b.Argmax(gcn(b, 2, v, c))
	}
	return []chainCase{
		{"gcn-series", 2, []int{d}, func(b *Builder, in []int, _ bool) { series(b, in[0]) }},
		{"gcn-cascaded", 2, []int{d, h}, func(b *Builder, in []int, _ bool) { series(b, b.Concat(in...)) }},
		{"gat", 1, []int{d}, func(b *Builder, in []int, _ bool) {
			b.Argmax(gat(b, 0, b.ReLU(gat(b, 1, in[0], h)), c))
		}},
		{"gcn-parallel", 0, []int{d, h, h}, func(b *Builder, in []int, _ bool) {
			v := b.ReLU(gcn(b, 0, in[0], h))
			v = b.ReLU(gcn(b, 1, b.Concat(v, in[1]), h))
			b.Argmax(gcn(b, 2, b.Concat(v, in[2]), c))
		}},
		{"kept", 0, []int{d}, func(b *Builder, in []int, _ bool) {
			v := b.ReLU(gcn(b, 0, in[0], h))
			b.Keep(v)
			b.Argmax(gcn(b, 1, v, c))
		}},
		{"output", 0, []int{d}, func(b *Builder, in []int, _ bool) {
			v := b.ReLU(gcn(b, 0, in[0], h))
			b.Keep(gcn(b, 1, v, c))
			b.Output(v)
		}},
		{"second-reader", 0, []int{d}, func(b *Builder, in []int, _ bool) {
			v := b.ReLU(gcn(b, 0, in[0], h))
			v = b.Add(b.MatMul(v, weight(1, h, h)), v) // v is the residual too
			b.Argmax(b.AddBias(b.SpMM(csr, v), bias[:h]))
		}},
		{"sage", 0, []int{d}, func(b *Builder, in []int, _ bool) {
			b.Argmax(sage(b, 0, b.ReLU(sage(b, 1, in[0], h)), c))
		}},
		{"chained-matmul-stages", 1, []int{d}, func(b *Builder, in []int, _ bool) {
			// SpMM → MatMul → MatMul: the first MatMul consumes a chained
			// value, so it stages its own output and chains nothing.
			v := b.MatMul(b.SpMM(csr, in[0]), weight(0, d, h))
			b.Argmax(b.MatMul(b.ReLU(v), weight(1, h, c)))
		}},
		{"halo-destination", 0, []int{d}, func(b *Builder, in []int, halo bool) {
			v := b.ReLU(b.SpMM(csr, in[0]))
			if halo {
				v = b.Halo(v, nil)
			}
			b.Argmax(b.AddBias(b.SpMM(csr, b.MatMul(v, weight(0, d, c))), bias[:c]))
		}},
		{"halo-source", 0, []int{d}, func(b *Builder, in []int, halo bool) {
			v := b.ReLU(b.SpMM(csr, in[0]))
			y := b.ReLU(b.MatMul(v, weight(0, d, d)))
			if halo {
				v = b.Halo(v, nil)
			}
			b.Argmax(b.AddBias(b.SpMM(csr, b.Add(y, v)), bias[:d]))
		}},
	}
}

// TestChainingRule pins which values a tiled machine chains (fuse.go) —
// a hidden value whose only reader is the next MatMul, in the GCN series
// and cascaded rectifiers and after GAT's attention; not the parallel
// design's (its Concat reads it), a kept value, the output, a halo source
// or destination, a value with a second reader, SAGE's neighbour mean
// (its MatMul is not the next op), nor a value a chained MatMul writes —
// and that a chained machine, at fp64 and int8, is bit-identical to the
// direct one in output and labels, refuses the chained values in
// Machine.Value, and counts its band scratch in TileBytes.
func TestChainingRule(t *testing.T) {
	const n, d, h, c, tile = 300, 12, 19, 3, 140 // bands of 128 and 12 rows per full tile, one of 20 in the last
	for _, tc := range chainCases(n, d, h, c) {
		build := func(halo bool) (*Program, bool) {
			b := NewBuilder(n)
			in := make([]int, len(tc.inputs))
			for k, w := range tc.inputs {
				in[k] = b.Input(w)
			}
			tc.build(b, in, halo)
			p := b.Build().Fused()
			return p, p.hasHalo
		}
		prog, halo := build(true)
		rng := rand.New(rand.NewSource(64))
		inputs := make([]*mat.Matrix, len(tc.inputs))
		for k, w := range tc.inputs {
			inputs[k] = randMat(rng, n, w)
		}
		plain, _ := build(false)
		base, _, err := CalibrateScales(plain, n, inputs)
		if err != nil {
			t.Fatal(err)
		}
		scales, err := ShardScales(prog, base)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg Config, labels []int) (*Machine, *mat.Matrix) {
			m, err := prog.NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s: NewMachine(%+v): %v", tc.name, cfg, err)
			}
			if !halo {
				return m, m.Run(n, inputs, labels).Clone()
			}
			f, err := NewFleet([]*Machine{m})
			if err != nil {
				t.Fatal(err)
			}
			out, err := f.RunShard(0, n, inputs, labels)
			if err != nil {
				t.Fatal(err)
			}
			return m, out.Clone()
		}
		for _, elem := range []Elem{F64, I8} {
			wantLabels, gotLabels := make([]int, n), make([]int, n)
			_, want := run(Config{Workers: 1, Elem: elem, Scales: scales}, wantLabels)
			m, got := run(Config{TileRows: tile, Elem: elem, Scales: scales}, gotLabels)
			chained, width := 0, 0
			for v, val := range m.prog.vals {
				if !val.chained {
					continue
				}
				chained++
				width = max(width, val.width)
				if val.extra > 0 || m.host[v] >= 0 {
					t.Fatalf("%s %s: halo value %d chained", tc.name, elem, v)
				}
				mustPanicExec(t, func() { m.Value(v) })
			}
			if chained != tc.chained {
				t.Fatalf("%s %s: %d values chained, want %d", tc.name, elem, chained, tc.chained)
			}
			if !got.Equal(want) || !slices.Equal(gotLabels, wantLabels) {
				t.Fatalf("%s %s: chained tiled machine differs from the direct one", tc.name, elem)
			}
			scratch := int64(m.attnRow)*8 + int64(chainBand*width*elem.Size())
			if m.TileBytes() != int64(tile*prog.MaxWidth()*elem.Size())+scratch {
				t.Fatalf("%s %s: TileBytes %d, want a %d-row tile of %d columns plus %d B of scratch",
					tc.name, elem, m.TileBytes(), tile, prog.MaxWidth(), scratch)
			}
			// TileRowsWithin inverts TileBytes, above and below the band
			// height.
			for _, rows := range []int{tile, chainBand, chainBand - 1, 5} {
				m, err := prog.NewMachine(Config{TileRows: rows, Elem: elem, Scales: scales})
				if err != nil {
					t.Fatal(err)
				}
				if got := prog.TileRowsWithin(m.TileBytes(), elem); got != rows {
					t.Fatalf("%s %s: TileRowsWithin(TileBytes of %d rows) = %d", tc.name, elem, rows, got)
				}
				if got := prog.TileRowsWithin(m.TileBytes()-1, elem); got != rows-1 {
					t.Fatalf("%s %s: TileRowsWithin(TileBytes of %d rows, less a byte) = %d", tc.name, elem, rows, got)
				}
			}
		}
	}
}

// spanBytes is a recorder that sums the flush bytes of the op spans a
// machine records, and counts them.
type spanBytes struct {
	bytes int64
	spans int
}

func (r *spanBytes) Enabled() bool   { return true }
func (r *spanBytes) NewSpan() uint64 { return 0 }
func (r *spanBytes) Clock() int64    { return 0 }
func (r *spanBytes) Record(s obs.Span) {
	if s.Kind == obs.SpanOp && OpKind(s.Op) != opQuantise {
		r.bytes += s.Bytes
		r.spans++
	}
}

// TestChainedTraceMatchesLedger ties the trace to the ledger: on a tiled
// run the op spans' bytes sum to SpillTraffic + HaloBytes, the figure a
// plan bills as boundary transfer, on a chained program (one span per
// chained pair) and an unchained one, at both element types.
func TestChainedTraceMatchesLedger(t *testing.T) {
	const n, d, h, c = 97, 12, 19, 3
	for _, tc := range chainCases(n, d, h, c) {
		if tc.name != "gcn-series" && tc.name != "sage" {
			continue
		}
		b := NewBuilder(n)
		tc.build(b, []int{b.Input(d)}, false)
		prog := b.Build().Fused()
		x := randMat(rand.New(rand.NewSource(65)), n, d)
		scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
		if err != nil {
			t.Fatal(err)
		}
		for _, elem := range []Elem{F64, I8} {
			rec := &spanBytes{}
			m, err := prog.NewMachine(Config{TileRows: 40, Elem: elem, Scales: scales, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			m.Run(n, []*mat.Matrix{x}, make([]int, n))
			if want := m.SpillTraffic(n) + m.HaloBytes(); rec.bytes != want {
				t.Fatalf("%s %s: op spans carry %d B, the ledger bills %d B", tc.name, elem, rec.bytes, want)
			}
			if want := len(prog.ops) - tc.chained; rec.spans != want {
				t.Fatalf("%s %s: %d op spans, want %d", tc.name, elem, rec.spans, want)
			}
		}
	}
}
