package exec

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"gnnvault/internal/mat"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/int8_golden.json from this build's int8 codes")

const goldenI8Path = "testdata/int8_golden.json"

// goldenI8 is one program's int8 fingerprint: an FNV-1a hash of every
// live value's codes after a Run (inputs' boundary codes included, in
// value order) and one of the labels.
type goldenI8 struct {
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

// fingerprintI8 runs prog at int8 under cfg and hashes what it left.
func fingerprintI8(t *testing.T, prog *Program, cfg Config, x *mat.Matrix) goldenI8 {
	t.Helper()
	m, err := prog.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(%+v): %v", cfg, err)
	}
	labels := make([]int, x.Rows)
	m.Run(x.Rows, []*mat.Matrix{x}, labels)
	var g goldenI8
	for i, v := range prog.vals {
		if v.dead {
			continue
		}
		h := fnv.New64a()
		view := &m.q.views[i]
		fmt.Fprintf(h, "%d:%dx%d:", i, view.Rows, view.Cols)
		for _, q := range view.Data {
			h.Write([]byte{byte(q)})
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
// conv kinds, in direct, tiled and tile-parallel plans, to hashes
// recorded before the product rows went through one fused entry
// (testdata/int8_golden.json, written by the commit before that change
// with -update-golden): a kernel or driver rewrite that moves one code of
// one value on either build fails here, naming the value. The hashes
// include float64 calibration and math.Exp results, so they are
// recorded on, and checked on, amd64 only — the AVX2 and purego builds
// both.
func TestI8GoldenCodes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden int8 codes are recorded on amd64")
	}
	golden := map[string]goldenI8{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenI8Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", goldenI8Path, err)
		}
	}
	for name, build := range goldenPrograms() {
		prog, x := build()
		scales, _, err := CalibrateScales(prog, x.Rows, []*mat.Matrix{x})
		if err != nil {
			t.Fatalf("%s: CalibrateScales: %v", name, err)
		}
		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"direct", Config{Workers: 1, Elem: I8, Scales: scales}},
			{"tiled", Config{TileRows: 13, Workers: 1, Elem: I8, Scales: scales}},
			{"tile-parallel", Config{TileRows: 13, Workers: 3, Elem: I8, Scales: scales}},
		} {
			got := fingerprintI8(t, prog, mode.cfg, x)
			if *updateGolden {
				if prev, ok := golden[name]; ok && !(slices.Equal(prev.Values, got.Values) && prev.Labels == got.Labels) {
					t.Fatalf("%s %s differs from %s direct: nothing to record", name, mode.name, name)
				}
				golden[name] = got
				continue
			}
			want, ok := golden[name]
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
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenI8Path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
