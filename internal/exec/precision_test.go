package exec

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
)

// buildPrecisionProg assembles the fuzz/regression program the precision
// tests share: MatMul → SpMM → bias → residual Add → ReLU → Concat →
// MatMul → Argmax, fused — every op kind the int8 kernels implement, in
// one chain.
func buildPrecisionProg(n, d, h int, seed int64) (*Program, *mat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	csr := testCSR(n, seed)
	b := NewBuilder(n)
	in := b.Input(d)
	v := b.MatMul(in, randMat(rng, d, h))
	v = b.SpMM(csr, v)
	v = b.AddBias(v, randMat(rng, 1, h).Data)
	skip := b.MatMul(in, randMat(rng, d, h))
	v = b.Add(v, skip)
	v = b.ReLU(v)
	v = b.Concat(v, in)
	out := b.MatMul(v, randMat(rng, h+d, d))
	b.Argmax(out)
	return b.Build().Fused(), randMat(rng, n, d)
}

// buildAttnProg assembles a GAT-like conv and a dense head — MatMul →
// scores → Attn → bias → ReLU → MatMul → Argmax, fused — over a
// non-symmetric structure: the attention op's int8 form in a program of
// its own.
func buildAttnProg(n, d, h int, seed int64) (*Program, *mat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	in := b.Input(d)
	z := b.MatMul(in, randMat(rng, d, h))
	v := b.Attn(testStructure(n, seed), b.MatMul(z, randMat(rng, h, 1)), b.MatMul(z, randMat(rng, h, 1)), z, 0.2)
	v = b.AddBias(v, randMat(rng, 1, h).Data)
	v = b.ReLU(v)
	b.Argmax(b.MatMul(v, randMat(rng, h, d)))
	return b.Build().Fused(), randMat(rng, n, d)
}

// runReducedLabels builds a machine of the given config over prog and
// returns its output clone and labels.
func runReducedLabels(t *testing.T, prog *Program, cfg Config, n int, x *mat.Matrix) (*mat.Matrix, []int) {
	t.Helper()
	m, err := prog.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(%+v): %v", cfg, err)
	}
	labels := make([]int, n)
	out := m.Run(n, []*mat.Matrix{x}, labels).Clone()
	return out, labels
}

// TestI8MachineCalibrated: a calibrated int8 machine reproduces the fp64
// argmax on every row whose fp64 top-1/top-2 margin exceeds twice the
// measured quantization error, and tiled int8 output is bit-identical to
// direct int8 (int32 accumulation is order-free).
func TestI8MachineCalibrated(t *testing.T) {
	const n, d, h = 57, 5, 7
	prog, x := buildPrecisionProg(n, d, h, 12)
	scales, refLabels, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	ref, _ := runReducedLabels(t, prog, Config{Workers: 1}, n, x)

	direct, dLabels := runReducedLabels(t, prog, Config{Workers: 1, Elem: I8, Scales: scales}, n, x)
	// Measured dequantized error bounds which rows may legitimately flip.
	maxErr := 0.0
	for i := range direct.Data {
		if e := math.Abs(direct.Data[i] - ref.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	w := ref.Cols
	for r := 0; r < n; r++ {
		row := ref.Data[r*w : (r+1)*w]
		top, second := math.Inf(-1), math.Inf(-1)
		for _, v := range row {
			if v > top {
				top, second = v, top
			} else if v > second {
				second = v
			}
		}
		if top-second > 2*maxErr && dLabels[r] != refLabels[r] {
			t.Fatalf("int8 label[%d] = %d, fp64 %d despite margin %g > 2×err %g",
				r, dLabels[r], refLabels[r], top-second, maxErr)
		}
	}
	out, labels := runReducedLabels(t, prog, Config{TileRows: 13, Elem: I8, Scales: scales}, n, x)
	if !out.Equal(direct) {
		t.Fatal("int8 tiled output not bit-identical to int8 direct")
	}
	for i := range labels {
		if labels[i] != dLabels[i] {
			t.Fatalf("int8 tiled label[%d] differs", i)
		}
	}
}

// TestReducedMachineErrors pins the refusal surface: unknown element
// types, int8 without (or with misshapen) scales, and an op kind with no
// int8 kernel — which must fail planning, not run as a no-op.
func TestReducedMachineErrors(t *testing.T) {
	prog, x := buildPrecisionProg(16, 3, 4, 5)
	if _, err := prog.NewMachine(Config{Elem: I8}); err == nil {
		t.Fatal("int8 machine without scales accepted")
	}
	if _, err := prog.NewMachine(Config{Elem: I8, Scales: [][]float64{{1}}}); err == nil {
		t.Fatal("int8 machine with short scale list accepted")
	}
	goodScales, _, err := CalibrateScales(prog, 16, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	bad := make([][]float64, len(goodScales))
	copy(bad, goodScales)
	for i, s := range bad {
		if len(s) > 0 {
			bad[i] = s[:len(s)-1] // right value count, wrong column count
			break
		}
	}
	if _, err := prog.NewMachine(Config{Elem: I8, Scales: bad}); err == nil {
		t.Fatal("int8 machine with wrong per-column scale width accepted")
	}
	if _, err := prog.NewMachine(Config{Elem: I8 + 1}); err == nil {
		t.Fatal("unknown element type accepted")
	}

	unknown := *prog
	unknown.ops = append([]Op(nil), prog.ops...)
	unknown.ops[0].Kind = OpHalo + 1
	if _, err := unknown.NewMachine(Config{Elem: I8, Scales: goodScales}); err == nil || !strings.Contains(err.Error(), unknown.ops[0].Kind.String()) {
		t.Fatalf("int8 machine over an op kind without a kernel: err = %v, want one naming %s", err, unknown.ops[0].Kind)
	}
}

// TestReducedRunAllocFree: steady-state reduced Run stays off the heap,
// like the fp64 engine — conversion buffers are planned, not allocated
// per call.
func TestReducedRunAllocFree(t *testing.T) {
	const n = 40
	prog, x := buildPrecisionProg(n, 4, 6, 7)
	scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	labels := make([]int, n)
	in := []*mat.Matrix{x}
	for _, cfg := range []Config{
		{Workers: 1, Elem: I8, Scales: scales},
		{TileRows: 9, Elem: I8, Scales: scales},
	} {
		m, err := prog.NewMachine(cfg)
		if err != nil {
			t.Fatalf("NewMachine(%+v): %v", cfg, err)
		}
		m.Run(n, in, labels) // warm-up
		allocs := testing.AllocsPerRun(10, func() {
			m.Run(n, in, labels)
		})
		if allocs > 0 {
			t.Fatalf("%s Run allocates %.1f objects/op (cfg %+v)", cfg.Elem, allocs, cfg)
		}
		// The skip path: inputs declared as one record's keep their codes.
		record := new(int)
		m.SetInputEpoch(record)
		m.Run(n, in, labels) // quantises, keyed to the record
		allocs = testing.AllocsPerRun(10, func() {
			m.SetInputEpoch(record)
			m.Run(n, in, labels)
		})
		if allocs > 0 {
			t.Fatalf("%s Run over a declared record allocates %.1f objects/op (cfg %+v)", cfg.Elem, allocs, cfg)
		}
	}
}

// TestInputEpochSkipsOnlyItsRecord pins Machine.SetInputEpoch: a Run
// whose inputs were declared as the record the boundary buffers already
// hold the codes of does not quantise — shown by editing the matrix
// behind the machine's back, which such a Run must not notice (the span's
// Rows say so too) — and every other Run does: no declaration, a spent
// declaration, another record, a nil declaration. Direct and tiled.
func TestInputEpochSkipsOnlyItsRecord(t *testing.T) {
	const n = 40
	prog, x := buildPrecisionProg(n, 4, 6, 11)
	scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	edited := x.Clone()
	for i := range edited.Data {
		edited.Data[i] = -edited.Data[i]
	}
	for _, cfg := range []Config{
		{Workers: 1, Elem: I8, Scales: scales},
		{TileRows: 9, Elem: I8, Scales: scales},
	} {
		ring := obs.NewRing(256)
		cfg.Recorder = ring
		m, err := prog.NewMachine(cfg)
		if err != nil {
			t.Fatalf("NewMachine(%+v): %v", cfg, err)
		}
		run := func(what string, epoch any, in *mat.Matrix) (logits []float64, quantised int32) {
			t.Helper()
			t0 := ring.Clock()
			if epoch != nil {
				m.SetInputEpoch(epoch)
			}
			out := m.Run(n, []*mat.Matrix{in}, nil)
			spans := 0
			for _, s := range ring.Last(0) {
				if s.Start >= t0 && s.Kind == obs.SpanOp && OpKind(s.Op).String() == "quantise" {
					spans, quantised = spans+1, s.Rows
				}
			}
			if spans != 1 {
				t.Fatalf("%s: %d quantise spans in one Run, want 1", what, spans)
			}
			return append([]float64(nil), out.Data...), quantised
		}
		recA, recB := new(int), new(int)
		wantX, q := run("undeclared", nil, x)
		if q != n {
			t.Fatalf("undeclared Run quantised %d rows, want %d", q, n)
		}
		wantEdited, _ := run("undeclared edited", nil, edited)
		if slices.Equal(wantX, wantEdited) {
			t.Fatal("the edit does not change the output: a skipped quantisation would go unseen")
		}
		if got, q := run("first of record A", recA, x); q != n || !slices.Equal(got, wantX) {
			t.Fatalf("first Run of a record quantised %d rows (want %d), output matches: %v", q, n, slices.Equal(got, wantX))
		}
		// Same record: the codes stay, whatever the matrix now says.
		if got, q := run("second of record A", recA, edited); q != 0 || !slices.Equal(got, wantX) {
			t.Fatalf("declared Run over the held record quantised %d rows (want 0), kept codes: %v", q, slices.Equal(got, wantX))
		}
		// The declaration was spent: the next Run reads what it is given.
		if got, q := run("after a spent declaration", nil, edited); q != n || !slices.Equal(got, wantEdited) {
			t.Fatalf("undeclared Run quantised %d rows (want %d), fresh codes: %v", q, n, slices.Equal(got, wantEdited))
		}
		// …and left the buffers keyed to nothing.
		if got, q := run("record A after own inputs", recA, x); q != n || !slices.Equal(got, wantX) {
			t.Fatalf("record after the caller's own inputs quantised %d rows (want %d), fresh codes: %v", q, n, slices.Equal(got, wantX))
		}
		if got, q := run("record B", recB, edited); q != n || !slices.Equal(got, wantEdited) {
			t.Fatalf("another record quantised %d rows (want %d), fresh codes: %v", q, n, slices.Equal(got, wantEdited))
		}
		m.SetInputEpoch(nil) // forget
		if got, q := run("record B after forgetting", recB, x); q != n || !slices.Equal(got, wantX) {
			t.Fatalf("Run after SetInputEpoch(nil) quantised %d rows (want %d), fresh codes: %v", q, n, slices.Equal(got, wantX))
		}
	}
}

// TestReducedAccountingShrinks: reduced machines report element-width-
// scaled tile, buffer, and spill bytes.
func TestReducedAccountingShrinks(t *testing.T) {
	const n = 64
	prog, x := buildPrecisionProg(n, 4, 6, 9)
	scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	mk := func(cfg Config) *Machine {
		m, err := prog.NewMachine(cfg)
		if err != nil {
			t.Fatalf("NewMachine(%+v): %v", cfg, err)
		}
		return m
	}
	f64 := mk(Config{TileRows: 8})
	i8 := mk(Config{TileRows: 8, Elem: I8, Scales: scales})
	if i8.TileBytes()*8 != f64.TileBytes() {
		t.Fatalf("tile bytes fp64=%d int8=%d, want an 8x ratio", f64.TileBytes(), i8.TileBytes())
	}
	if i8.SpillTraffic(n)*8 != f64.SpillTraffic(n) {
		t.Fatalf("spill fp64=%d int8=%d, want an 8x ratio", f64.SpillTraffic(n), i8.SpillTraffic(n))
	}
}

// FuzzPrecision fuzzes the int8 engine across program shapes × tile
// heights:
//
//   - calibrated int8 reproduces the fp64 argmax on every row whose
//     fp64 margin exceeds twice the error its wide argmax can carry — the
//     measured dequantized error plus half an output step;
//   - tiled int8 execution is bit-identical to direct int8 execution.
//
// Both are held on the product-chain program and on a GAT-like one whose
// conv is the attention op; the second only has to keep the margin
// property where a 0.99 agreement gate would admit it (the error the
// property reasons from is measured on clamped output codes, which a plan
// that far off its calibration saturates).
func FuzzPrecision(f *testing.F) {
	f.Add(uint8(16), uint8(3), uint8(4), uint8(5), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(64), uint8(8), uint8(2), uint8(63), int64(3))
	f.Fuzz(func(t *testing.T, nRaw, dRaw, hRaw, tileRaw uint8, seed int64) {
		n := int(nRaw)%64 + 1
		d := int(dRaw)%8 + 1
		h := int(hRaw)%8 + 1
		tile := int(tileRaw)%n + 1

		prog, x := buildPrecisionProg(n, d, h, seed)
		checkPrecisionProg(t, prog, x, tile, false)
		prog, x = buildAttnProg(n, d, h, seed)
		checkPrecisionProg(t, prog, x, tile, true)
	})
}

// checkPrecisionProg holds one fused program to FuzzPrecision's two
// properties on the batch x; gated restricts the margin property to runs
// whose int8 labels agree with fp64 on at least 0.99 of the rows.
func checkPrecisionProg(t *testing.T, prog *Program, x *mat.Matrix, tile int, gated bool) {
	t.Helper()
	n := x.Rows
	scales, refLabels, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatal(err)
	}
	refM, err := prog.NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := refM.Run(n, []*mat.Matrix{x}, nil).Clone()

	// int8: margin-gated argmax agreement, bit-identity within the tier.
	i8cfg := Config{Workers: 1, Elem: I8, Scales: scales}
	i8M, err := prog.NewMachine(i8cfg)
	if err != nil {
		t.Fatal(err)
	}
	i8Labels := make([]int, n)
	i8Out := i8M.Run(n, []*mat.Matrix{x}, i8Labels).Clone()
	// The label is the wide argmax over the floats the last op
	// requantises (mat.RequantizeRow), not over the codes: each sits
	// up to half an output step from the dequantised value measured
	// here, so that is the error a flip has to be explained by.
	maxErr := 0.0
	for i := range i8Out.Data {
		if e := math.Abs(i8Out.Data[i] - ref.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	wideErr := 0.0
	for _, s := range scales[prog.output] {
		wideErr = math.Max(wideErr, maxErr+s/2)
	}
	agree := 0
	for r := range i8Labels {
		if i8Labels[r] == refLabels[r] {
			agree++
		}
	}
	w := ref.Cols
	for r := 0; r < n && (!gated || agree*100 >= n*99); r++ {
		row := ref.Data[r*w : (r+1)*w]
		top, second := math.Inf(-1), math.Inf(-1)
		for _, v := range row {
			if v > top {
				top, second = v, top
			} else if v > second {
				second = v
			}
		}
		if top-second > 2*wideErr && i8Labels[r] != refLabels[r] {
			t.Fatalf("int8 label[%d] flips despite fp64 margin %g > 2×(err %g + half a step) = %g", r, top-second, maxErr, 2*wideErr)
		}
	}
	tiled, err := prog.NewMachine(Config{TileRows: tile, Elem: I8, Scales: scales})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, n)
	if got := tiled.Run(n, []*mat.Matrix{x}, labels); !got.Equal(i8Out) {
		t.Fatalf("n=%d tile=%d: int8 tiled output differs from int8 direct", n, tile)
	}
	for i := range labels {
		if labels[i] != i8Labels[i] {
			t.Fatalf("int8 tiled label[%d] differs from direct", i)
		}
	}
}

// TestAttnRejectsCorruptColumnBeforeWriting: the attention aggregate
// checks a span's structure columns once, ahead of its first row, so a
// column outside z in the middle of the structure panics at fp64 and at
// int8, direct and tiled, and the op's destination keeps what the
// previous Run left there — no row of the new Run was written. A short
// int8 epilogue operand is refused at the same point.
func TestAttnRejectsCorruptColumnBeforeWriting(t *testing.T) {
	const n = 60
	prog, x := buildAttnProg(n, 5, 8, 17)
	scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	other := x.Clone()
	for i := range other.Data {
		other.Data[i] = -other.Data[i]
	}
	var attn *Op
	for i := range prog.ops {
		if prog.ops[i].Kind == OpAttn {
			attn = &prog.ops[i]
		}
	}
	st := attn.CSR
	row := n / 2
	for st.RowPtr[row] == st.RowPtr[row+1] {
		row++
	}
	pos := st.RowPtr[row]
	for _, cfg := range []Config{
		{Workers: 1},
		{TileRows: n, Workers: 1},
		{Workers: 1, Elem: I8, Scales: scales},
		{TileRows: n, Workers: 1, Elem: I8, Scales: scales},
	} {
		m, err := prog.NewMachine(cfg)
		if err != nil {
			t.Fatalf("NewMachine(%+v): %v", cfg, err)
		}
		m.Run(n, []*mat.Matrix{x}, nil)
		var before []float64
		var before8 []int8
		if cfg.Elem == I8 {
			before8 = append(before8, m.q.views[attn.Dst].Data...)
		} else {
			before = append(before, m.views[attn.Dst].Data...)
		}
		good := st.ColIdx[pos]
		st.ColIdx[pos] = n
		mustPanicExec(t, func() { m.Run(n, []*mat.Matrix{other}, nil) })
		st.ColIdx[pos] = good
		for i, v := range before {
			if m.views[attn.Dst].Data[i] != v {
				t.Fatalf("%+v: fp64 attention wrote element %d before the panic", cfg, i)
			}
		}
		for i, v := range before8 {
			if m.q.views[attn.Dst].Data[i] != v {
				t.Fatalf("%+v: int8 attention wrote element %d before the panic", cfg, i)
			}
		}
		// The machine is whole again once the structure is.
		m.Run(n, []*mat.Matrix{other}, nil)

		// At int8 the span's epilogue operands are proved before its first
		// row as well (mat.CheckEpilogueI8): a short one panics with the
		// destination as the last Run left it.
		if cfg.Elem != I8 {
			continue
		}
		var aux *opAuxI8
		for i := range prog.ops {
			if &prog.ops[i] == attn {
				aux = &m.q.aux[i]
			}
		}
		before8 = append(before8[:0], m.q.views[attn.Dst].Data...)
		deq := aux.deq
		aux.deq = deq[:len(deq)-1]
		mustPanicExec(t, func() { m.Run(n, []*mat.Matrix{x}, nil) })
		aux.deq = deq
		for i, v := range before8 {
			if m.q.views[attn.Dst].Data[i] != v {
				t.Fatalf("%+v: int8 attention wrote element %d before refusing a short deq", cfg, i)
			}
		}
		m.Run(n, []*mat.Matrix{x}, nil)
	}
}
