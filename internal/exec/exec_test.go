package exec

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// testCSR builds a deterministic random normalised adjacency over n nodes.
func testCSR(n int, seed int64) *graph.NormAdjacency {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < n*3; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.Normalize(graph.New(n, edges))
}

// testStructure builds a deterministic non-symmetric CSR structure over n
// nodes for the attention op: rows of 0–4 random columns, empty rows
// included, and one hub row of 300 (repeats allowed) — more than two
// mat.RowChunk windows, whatever n is.
func testStructure(n int, seed int64) *graph.NormAdjacency {
	rng := rand.New(rand.NewSource(seed))
	st := &graph.NormAdjacency{N: n, RowPtr: make([]int, n+1)}
	hub := rng.Intn(n)
	for i := 0; i < n; i++ {
		deg := rng.Intn(5)
		if i == hub {
			deg = 300
		}
		for k := 0; k < deg; k++ {
			st.ColIdx = append(st.ColIdx, rng.Intn(n))
			st.Val = append(st.Val, 1)
		}
		st.RowPtr[i+1] = len(st.ColIdx)
	}
	return st
}

func randMat(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// buildGCNLikeProgram compiles a parallel-wired forward pass that exercises
// every op kind a single machine runs: MatMul, SpMM, AddBias, ReLU, Add,
// Attn (over a second, non-symmetric structure), Concat, Argmax.
func buildGCNLikeProgram(t testing.TB, n int, csr *graph.NormAdjacency) (*Program, []*mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const d0, d1, h, c = 6, 4, 5, 3
	w1 := randMat(rng, d0, h)
	b1 := randMat(rng, 1, h).Data
	w2 := randMat(rng, h+d1, c)
	b2 := randMat(rng, 1, c).Data
	wSkip := randMat(rng, d0, h)
	aS, aT := randMat(rng, h, 1), randMat(rng, h, 1)
	bAttn := randMat(rng, 1, h).Data

	b := NewBuilder(n)
	in0 := b.Input(d0)
	in1 := b.Input(d1)
	v := b.MatMul(in0, w1)
	v = b.SpMM(csr, v)
	v = b.AddBias(v, b1)
	skip := b.MatMul(in0, wSkip)
	v = b.Add(v, skip)
	v = b.ReLU(v)
	v = b.Attn(testStructure(n, 5), b.MatMul(v, aS), b.MatMul(v, aT), v, 0.2)
	v = b.AddBias(v, bAttn)
	v = b.ReLU(v)
	v = b.Concat(v, in1)
	v = b.MatMul(v, w2)
	v = b.AddBias(v, b2)
	b.Argmax(v)
	prog := b.Build()

	x0 := randMat(rng, n, d0)
	x1 := randMat(rng, n, d1)
	return prog, []*mat.Matrix{x0, x1}
}

// elemConfigs returns the direct single-threaded config of each element
// type for prog — int8 calibrated on the given batch — which the
// element-axis tests below derive their tiled variants from.
func elemConfigs(t testing.TB, prog *Program, rows int, inputs []*mat.Matrix) []Config {
	t.Helper()
	scales, _, err := CalibrateScales(prog, rows, inputs)
	if err != nil {
		t.Fatalf("CalibrateScales: %v", err)
	}
	return []Config{{Workers: 1}, {Workers: 1, Elem: I8, Scales: scales}}
}

// TestTiledMatchesDirect is the core tiling property: for tile heights
// {1, 7, n-1, n}, the streamed execution is bit-identical to the direct
// reference of the same element type — same kernels, same per-row loop
// order, only the staging differs. The program is unfused, so at int8 this
// is what holds the standalone element-wise ops and the code-space argmax
// head to the contract.
func TestTiledMatchesDirect(t *testing.T) {
	const n = 53
	csr := testCSR(n, 1)
	prog, inputs := buildGCNLikeProgram(t, n, csr)

	for _, base := range elemConfigs(t, prog, n, inputs) {
		direct, err := prog.NewMachine(base)
		if err != nil {
			t.Fatalf("%s direct machine: %v", base.Elem, err)
		}
		wantLabels := make([]int, n)
		wantLogits := direct.Run(n, inputs, wantLabels).Clone()

		for _, tile := range []int{1, 7, n - 1, n} {
			cfg := base
			cfg.TileRows = tile
			m, err := prog.NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s tile=%d: %v", base.Elem, tile, err)
			}
			labels := make([]int, n)
			logits := m.Run(n, inputs, labels)
			if !logits.Equal(wantLogits) {
				t.Fatalf("%s tile=%d: logits differ from direct reference", base.Elem, tile)
			}
			for i := range labels {
				if labels[i] != wantLabels[i] {
					t.Fatalf("%s tile=%d: label[%d] = %d, want %d", base.Elem, tile, i, labels[i], wantLabels[i])
				}
			}
			// One staging tile and one 300-long (the hub row) float64
			// attention scratch row.
			if got := m.TileBytes(); got != int64(tile)*int64(prog.MaxWidth())*int64(base.Elem.Size())+300*8 {
				t.Fatalf("%s tile=%d: TileBytes %d", base.Elem, tile, got)
			}
		}
	}
}

// TestRunAllocFree pins the hot-path contract: steady-state Run performs
// zero heap allocations, at both element types, in every execution mode.
func TestRunAllocFree(t *testing.T) {
	const n = 40
	csr := testCSR(n, 2)
	prog, inputs := buildGCNLikeProgram(t, n, csr)
	labels := make([]int, n)
	for _, base := range elemConfigs(t, prog, n, inputs) {
		for _, tile := range []int{0, 9} {
			cfg := base
			cfg.TileRows = tile
			m, err := prog.NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s tile=%d: %v", base.Elem, tile, err)
			}
			m.Run(n, inputs, labels) // warm-up
			allocs := testing.AllocsPerRun(10, func() {
				m.Run(n, inputs, labels)
			})
			if allocs > 0 {
				t.Fatalf("%s tile=%d: Run allocates %.1f objects/op, want 0", base.Elem, tile, allocs)
			}
		}
	}
}

// TestVariableRows checks that one machine serves shrinking batch heights
// (the subgraph path) — for SpMM the operator is re-induced per run, here
// simulated by swapping the header contents. The fp64 direct machine is
// held to the kernels' own product; every other machine to the direct
// machine of its element type, int8's per-run SpMM value scale included.
func TestVariableRows(t *testing.T) {
	const cap = 30
	header := &graph.NormAdjacency{}
	rng := rand.New(rand.NewSource(3))
	w := randMat(rng, 4, 3)
	b := NewBuilder(cap)
	in := b.Input(4)
	v := b.MatMul(in, w)
	v = b.SpMM(header, v)
	b.Argmax(v)
	prog := b.Build()

	*header = *testCSR(cap, cap)
	for _, base := range elemConfigs(t, prog, cap, []*mat.Matrix{randMat(rng, cap, 4)}) {
		var machines []*Machine
		for _, tile := range []int{0, 4} {
			cfg := base
			cfg.TileRows = tile
			m, err := prog.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, m)
		}
		for _, rows := range []int{cap, 11, 1} {
			*header = *testCSR(rows, int64(rows))
			x := randMat(rng, rows, 4)
			wantLabels := make([]int, rows)
			want := machines[0].Run(rows, []*mat.Matrix{x}, wantLabels).Clone()
			if base.Elem == F64 && !want.Equal(header.MulDense(mat.MatMul(x, w))) {
				t.Fatalf("rows=%d: output differs from reference", rows)
			}
			for _, m := range machines[1:] {
				labels := make([]int, rows)
				if got := m.Run(rows, []*mat.Matrix{x}, labels); !got.Equal(want) {
					t.Fatalf("%s rows=%d tile=%d: output differs from direct", base.Elem, rows, m.TileRows())
				}
				for i := range labels {
					if labels[i] != wantLabels[i] {
						t.Fatalf("%s rows=%d tile=%d: label[%d] differs from direct", base.Elem, rows, m.TileRows(), i)
					}
				}
			}
		}
	}
}

// TestAttnMatchesLiteralSoftmax holds the attention op to its contract
// written out naively — per row a stable softmax of LeakyReLU(s[i]+t[j])
// over the structure's columns, the coefficients applied to z's rows in
// CSR order, an empty row answering zero — before the bias, with the
// scores taken from the machine's own values so only the op is on trial.
func TestAttnMatchesLiteralSoftmax(t *testing.T) {
	const n, d = 37, 5
	rng := rand.New(rand.NewSource(9))
	st := testStructure(n, 9)
	bias := randMat(rng, 1, d).Data
	b := NewBuilder(n)
	z := b.Input(d)
	s := b.MatMul(z, randMat(rng, d, 1))
	tv := b.MatMul(z, randMat(rng, d, 1))
	b.Keep(s) // read after Run below
	b.Keep(tv)
	b.AddBias(b.Attn(st, s, tv, z, 0.2), bias)
	m, err := b.Build().NewMachine(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := randMat(rng, n, d)
	got := m.Run(n, []*mat.Matrix{x}, nil)
	sc, tc := m.Value(s).Data, m.Value(tv).Data
	for i := 0; i < n; i++ {
		cols := st.ColIdx[st.RowPtr[i]:st.RowPtr[i+1]]
		e, mx := make([]float64, len(cols)), math.Inf(-1)
		for k, j := range cols {
			if e[k] = sc[i] + tc[j]; e[k] < 0 {
				e[k] *= 0.2
			}
			mx = math.Max(mx, e[k])
		}
		sum := 0.0
		for k := range e {
			e[k] = math.Exp(e[k] - mx)
			sum += e[k]
		}
		want := make([]float64, d)
		for k, j := range cols {
			for c := 0; c < d; c++ {
				want[c] += e[k] / sum * x.At(j, c)
			}
		}
		for c := 0; c < d; c++ {
			if g, w := got.At(i, c), want[c]+bias[c]; math.Abs(g-w) > 1e-12 {
				t.Fatalf("row %d (%d neighbours) col %d = %g, literal softmax gives %g", i, len(cols), c, g, w)
			}
		}
	}
}

// TestBuilderValidation spot-checks the compile-time shape rules.
func TestBuilderValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	rng := rand.New(rand.NewSource(5))
	expectPanic("width mismatch", func() {
		b := NewBuilder(4)
		in := b.Input(3)
		b.MatMul(in, randMat(rng, 5, 2))
	})
	expectPanic("bias on input", func() {
		b := NewBuilder(4)
		in := b.Input(3)
		b.AddBias(in, make([]float64, 3))
	})
	expectPanic("wide attention score", func() {
		b := NewBuilder(4)
		in := b.Input(3)
		b.Attn(testStructure(4, 1), in, in, in, 0.2)
	})
	expectPanic("empty program", func() {
		NewBuilder(4).Build()
	})
	expectPanic("op after argmax", func() {
		b := NewBuilder(4)
		in := b.Input(3)
		b.Argmax(in)
		b.ReLU(in)
	})
}
