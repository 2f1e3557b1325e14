package exec

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"gnnvault/internal/mat"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files of the golden tests that run (testdata/int8_golden.json, testdata/fp64_golden.json) from this build's values")

const (
	goldenI8Path  = "testdata/int8_golden.json"
	goldenF64Path = "testdata/fp64_golden.json"
)

// golden is one program's fingerprint at one element type: an FNV-1a
// hash of every live value after a Run (inputs included — at int8 their
// boundary codes — in value order; int8 codes a byte each, fp64 elements
// their eight bytes little-endian) and one of the labels.
type golden struct {
	Values []string `json:"values"`
	Labels string   `json:"labels"`
}

// goldenPrograms are the three conv kinds as core lowers them, two layers
// deep, fused, on shapes that cross what the int8 row kernels branch on:
// 19 hidden columns (two full steps and a 3-column tail), 3 logits (a row
// narrower than one step), an input wider than mat.RowChunk (the dense
// product continues a row chunk by chunk), CSR rows that straddle the
// SpMM's value-code windows, and the attention structure's 300-term hub.
func goldenPrograms() map[string]func() (*Program, *mat.Matrix) {
	const n, d, h, c = 97, 150, 19, 3
	return map[string]func() (*Program, *mat.Matrix){
		"gcn": func() (*Program, *mat.Matrix) {
			rng := rand.New(rand.NewSource(41))
			csr := testCSR(n, 41)
			b := NewBuilder(n)
			in := b.Input(d)
			v := b.ReLU(b.AddBias(b.SpMM(csr, b.MatMul(in, randMat(rng, d, h))), randMat(rng, 1, h).Data))
			v = b.AddBias(b.SpMM(csr, b.MatMul(v, randMat(rng, h, c))), randMat(rng, 1, c).Data)
			b.Argmax(v)
			return b.Build().Fused(), randMat(rng, n, d)
		},
		"sage": func() (*Program, *mat.Matrix) {
			rng := rand.New(rand.NewSource(42))
			mean := testCSR(n, 42)
			b := NewBuilder(n)
			conv := func(in, inDim, outDim int) int {
				mx := b.SpMM(mean, in)
				self := b.MatMul(in, randMat(rng, inDim, outDim))
				nbr := b.MatMul(mx, randMat(rng, inDim, outDim))
				return b.AddBias(b.Add(self, nbr), randMat(rng, 1, outDim).Data)
			}
			in := b.Input(d)
			b.Argmax(conv(b.ReLU(conv(in, d, h)), h, c))
			return b.Build().Fused(), randMat(rng, n, d)
		},
		"gat": func() (*Program, *mat.Matrix) {
			rng := rand.New(rand.NewSource(43))
			st := testStructure(n, 43)
			b := NewBuilder(n)
			conv := func(in, inDim, outDim int) int {
				z := b.MatMul(in, randMat(rng, inDim, outDim))
				s, t := b.MatMul(z, randMat(rng, outDim, 1)), b.MatMul(z, randMat(rng, outDim, 1))
				return b.AddBias(b.Attn(st, s, t, z, 0.2), randMat(rng, 1, outDim).Data)
			}
			in := b.Input(d)
			b.Argmax(conv(b.ReLU(conv(in, d, h)), h, c))
			return b.Build().Fused(), randMat(rng, n, d)
		},
	}
}

// fingerprint runs prog under cfg and hashes what it left.
func fingerprint(t *testing.T, prog *Program, cfg Config, x *mat.Matrix) golden {
	t.Helper()
	m, err := prog.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(%+v): %v", cfg, err)
	}
	labels := make([]int, x.Rows)
	m.Run(x.Rows, []*mat.Matrix{x}, labels)
	var g golden
	for i, v := range prog.vals {
		if v.dead {
			continue
		}
		h := fnv.New64a()
		if cfg.Elem == I8 {
			view := &m.q.views[i]
			fmt.Fprintf(h, "%d:%dx%d:", i, view.Rows, view.Cols)
			for _, q := range view.Data {
				h.Write([]byte{byte(q)})
			}
		} else {
			view := &m.views[i]
			fmt.Fprintf(h, "%d:%dx%d:", i, view.Rows, view.Cols)
			var b [8]byte
			for _, f := range view.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
		g.Values = append(g.Values, fmt.Sprintf("%016x", h.Sum64()))
	}
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%d,", l)
	}
	g.Labels = fmt.Sprintf("%016x", h.Sum64())
	return g
}

// TestI8GoldenCodes pins every int8 code and every label of the three
// conv kinds, in direct and tiled plans, to hashes
// recorded before the product rows went through one fused entry
// (testdata/int8_golden.json, written by the commit before that change
// with -update-golden): a kernel or driver rewrite that moves one code of
// one value on either build fails here, naming the value. The hashes
// include float64 calibration and math.Exp results, so they are
// recorded on, and checked on, amd64 only — the AVX2 and purego builds
// both.
func TestI8GoldenCodes(t *testing.T) { requireGolden(t, goldenI8Path, I8) }

// TestF64GoldenValues is the same fence at fp64: every bit of every live
// value and every label of the three programs, in direct and tiled
// plans, against hashes recorded by the commit before the
// fp64 product rows moved into range kernel calls with the epilogue
// finished in the accumulators (testdata/fp64_golden.json) — so the
// AVX2 and purego builds are compared with what the per-row kernels
// computed, not assumed equal to it. The programs' values hold no NaN,
// whose payload no kernel can pin.
func TestF64GoldenValues(t *testing.T) { requireGolden(t, goldenF64Path, F64) }

// requireGolden holds the golden programs at elem, in both plan modes, to
// the fingerprints in path — or, under -update-golden, records them there,
// refusing if the modes disagree.
func requireGolden(t *testing.T, path string, elem Elem) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values are recorded on amd64")
	}
	recorded := map[string]golden{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &recorded); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for name, build := range goldenPrograms() {
		prog, x := build()
		var scales [][]float64
		if elem == I8 {
			var err error
			if scales, _, err = CalibrateScales(prog, x.Rows, []*mat.Matrix{x}); err != nil {
				t.Fatalf("%s: CalibrateScales: %v", name, err)
			}
		}
		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"direct", Config{Workers: 1, Elem: elem, Scales: scales}},
			{"tiled", Config{TileRows: 13, Elem: elem, Scales: scales}},
		} {
			got := fingerprint(t, prog, mode.cfg, x)
			if *updateGolden {
				if prev, ok := recorded[name]; ok && !(slices.Equal(prev.Values, got.Values) && prev.Labels == got.Labels) {
					t.Fatalf("%s %s differs from %s direct: nothing to record", name, mode.name, name)
				}
				recorded[name] = got
				continue
			}
			want, ok := recorded[name]
			if !ok {
				t.Fatalf("%s: no golden entry", name)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("%s %s: %d live values, golden has %d", name, mode.name, len(got.Values), len(want.Values))
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Errorf("%s %s: live value #%d hashes to %s, golden %s", name, mode.name, i, got.Values[i], want.Values[i])
				}
			}
			if got.Labels != want.Labels {
				t.Errorf("%s %s: labels hash to %s, golden %s", name, mode.name, got.Labels, want.Labels)
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
