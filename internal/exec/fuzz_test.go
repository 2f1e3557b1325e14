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

// FuzzBufferPlan fuzzes the buffer plan (buffers.go): a random fused chain
// of MatMul/SpMM/ReLU/Add/Concat ops, each reading the last value or an
// older one — so live ranges nest, cross and end at every distance — at
// random widths, must give the same output and labels, bit for bit, as
// the same program with every value kept, where no two values share a
// slot. Both element types, direct and tiled — a tiled machine chains
// what fuse.go lets it, the keep-all reference nothing; the int8 machines
// run on one calibration of the planned program.
func FuzzBufferPlan(f *testing.F) {
	f.Add(uint8(20), uint8(4), []byte{0, 1, 2, 3, 4, 0, 1, 5, 9, 13}, int64(1))
	f.Add(uint8(1), uint8(1), []byte{3, 3, 3}, int64(2))
	f.Add(uint8(63), uint8(7), []byte{4, 7, 1, 0, 2, 4, 4, 3, 6, 2, 0, 1, 8, 1, 3}, int64(3))
	// SpMM, MatMul, SpMM, MatMul: both SpMM outputs chain into their
	// MatMul in the tiled machines (fuse.go), in one band per 41-row tile;
	// the second MatMul then stages its own output for the head.
	f.Add(uint8(63), uint8(5), []byte{1, 0, 1, 0}, int64(40))
	f.Fuzz(func(t *testing.T, nRaw, dRaw uint8, chain []byte, seed int64) {
		n := int(nRaw)%64 + 1
		d := int(dRaw)%8 + 1
		if len(chain) > 24 {
			chain = chain[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		csr := testCSR(n, seed)
		b := NewBuilder(n)
		vals := []int{b.Input(d)}
		widths := []int{d}
		for k, c := range chain {
			// The op reads the newest value, or one up to three back.
			a := len(vals) - 1 - int(c>>3)%min(len(vals), 4)
			var v int
			switch c % 6 {
			case 0: // product, a fresh width
				v = b.MatMul(vals[a], randMat(rng, widths[a], int(c>>4)%7+1))
			case 1:
				v = b.SpMM(csr, vals[a])
			case 2:
				v = b.ReLU(vals[a])
			case 3: // biased product, which the fusion pass folds
				v = b.AddBias(b.MatMul(vals[a], randMat(rng, widths[a], widths[a])), randMat(rng, 1, widths[a]).Data)
			case 4: // residual: a product of the newest value plus an older one
				last := len(vals) - 1
				v = b.Add(b.MatMul(vals[last], randMat(rng, widths[last], widths[a])), vals[a])
			case 5: // concat, unless it would pass 256 columns: 24 concats of
				// the newest value double its width 24 times, a program
				// of gigabytes that no machine here can plan
				if widths[len(vals)-1]+widths[a] > 256 {
					v = b.ReLU(vals[a])
					break
				}
				v = b.Concat(vals[len(vals)-1], vals[a])
			}
			if k == len(chain)-1 || c%13 == 12 {
				v = b.ReLU(v)
			}
			vals = append(vals, v)
			widths = append(widths, b.width(v))
		}
		b.Argmax(b.MatMul(vals[len(vals)-1], randMat(rng, widths[len(vals)-1], 3)))
		prog := b.Build().Fused()
		ref := prog.keepAll()

		x := randMat(rng, n, d)
		scales, _, err := CalibrateScales(prog, n, []*mat.Matrix{x})
		if err != nil {
			t.Fatal(err)
		}
		tile := int(seed&0xff)%n + 1
		for _, cfg := range []Config{
			{Workers: 1},
			{TileRows: tile},
			{Workers: 1, Elem: I8, Scales: scales},
			{TileRows: tile, Elem: I8, Scales: scales},
		} {
			wantLabels, gotLabels := make([]int, n), make([]int, n)
			rm, err := ref.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := rm.Run(n, []*mat.Matrix{x}, wantLabels)
			m, err := prog.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.BufferBytes() > rm.BufferBytes() {
				t.Fatalf("%s tile=%d: planned buffers %d B exceed a buffer per value's %d B", cfg.Elem, cfg.TileRows, m.BufferBytes(), rm.BufferBytes())
			}
			if got := m.Run(n, []*mat.Matrix{x}, gotLabels); !got.Equal(want) {
				t.Fatalf("%s tile=%d, chain %v: planned output differs from the keep-all program's", cfg.Elem, cfg.TileRows, chain)
			}
			for i := range wantLabels {
				if gotLabels[i] != wantLabels[i] {
					t.Fatalf("%s tile=%d, chain %v: label[%d] differs from the keep-all program's", cfg.Elem, cfg.TileRows, chain, i)
				}
			}
		}
	})
}
