package exec

import (
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// FuzzTiledExec fuzzes the execution-equivalence invariants the whole
// engine rests on: for any program shape (row count, layer widths,
// sparsity seed) and any tile height, both of
//
//   - tiled streaming execution and
//   - the epilogue-fused program (direct and tiled)
//
// must be bit-identical to the unfused direct reference. The fuzzed
// program includes a residual Add chain so the fusion pass exercises
// every epilogue step (bias, residual, ReLU), and an attention aggregate
// over a second, non-symmetric CSR (empty rows, a hub row longer than a
// kernel window) with a bias/ReLU tail of its own. CI runs this as a
// short smoke; longer local runs just raise -fuzztime.
func FuzzTiledExec(f *testing.F) {
	f.Add(uint8(16), uint8(3), uint8(4), uint8(5), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(64), uint8(8), uint8(2), uint8(63), int64(3))
	f.Fuzz(func(t *testing.T, nRaw, dRaw, hRaw, tileRaw uint8, seed int64) {
		n := int(nRaw)%64 + 1
		d := int(dRaw)%8 + 1
		h := int(hRaw)%8 + 1
		tile := int(tileRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))

		csr := testCSR(n, seed)
		w1 := randMat(rng, d, h)
		b1 := randMat(rng, 1, h).Data
		wSkip := randMat(rng, d, h)

		b := NewBuilder(n)
		in := b.Input(d)
		v := b.MatMul(in, w1)
		v = b.SpMM(csr, v)
		v = b.AddBias(v, b1)
		skip := b.MatMul(in, wSkip)
		v = b.Add(v, skip)
		v = b.ReLU(v)
		v = b.Attn(testStructure(n, seed), b.MatMul(v, randMat(rng, h, 1)), b.MatMul(v, randMat(rng, h, 1)), v, 0.2)
		v = b.AddBias(v, randMat(rng, 1, h).Data)
		v = b.ReLU(v)
		v = b.Concat(v, in)
		_ = b.MatMul(v, randMat(rng, h+d, d))
		prog := b.Build()

		x := randMat(rng, n, d)
		direct, err := prog.NewMachine(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := direct.Run(n, []*mat.Matrix{x}, nil).Clone()

		check := func(name string, p *Program, cfg Config) {
			t.Helper()
			m, err := p.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Run(n, []*mat.Matrix{x}, nil); !got.Equal(want) {
				t.Fatalf("n=%d d=%d h=%d tile=%d: %s output differs from direct", n, d, h, tile, name)
			}
		}
		check("tiled", prog, Config{TileRows: tile})
		fused := prog.Fused()
		check("fused direct", fused, Config{Workers: 1})
		check("fused tiled", fused, Config{TileRows: tile})
	})
}
