package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
)

// TestBufferPlanNeverOverlapsLiveStorage holds the buffer plan to its one
// safety rule — at every op the destination's storage is disjoint from
// every source, from the residual and from every value live across the op
// — on the golden programs, the unfused every-op program (an in-place
// bias included) and the shard programs of a 2-shard GCN (halo
// destinations hosting their sources). Every machine NewMachine plans has
// passed the storage proof (checkStorage), at both element types, direct
// and tiled, and shares slots: its BufferBytes is below the same program's
// with every value kept.
//
// The proof itself is then tried on every pair of values of each fp64
// direct machine: with one value's buffer moved onto the other's slot, it
// must refuse the plan exactly when the moved value's live range meets
// that of a value in the slot — one written while the other was written
// earlier and is still to be read — and accept it otherwise.
func TestBufferPlanNeverOverlapsLiveStorage(t *testing.T) {
	type program struct {
		prog   *Program
		inputs []*mat.Matrix
	}
	programs := map[string]program{}
	for name, build := range goldenPrograms() {
		prog, x := build()
		programs[name] = program{prog, []*mat.Matrix{x}}
	}
	const n = 40
	prog, inputs := buildGCNLikeProgram(t, n, testCSR(n, 2))
	programs["unfused"] = program{prog, inputs}
	rng := rand.New(rand.NewSource(5))
	pr := newGCNParams(rng, 3, 6, 4)
	part := graph.NewPartition(testCSR(n, 9), 2)
	for s, p := range buildShardProgs(part, 3, pr) {
		programs[fmt.Sprintf("shard %d", s)] = program{prog: p}
	}

	for name, pg := range programs {
		p := pg.prog
		scales := make([][]float64, len(p.vals))
		if pg.inputs != nil {
			var err error
			if scales, _, err = CalibrateScales(p, p.MaxRows, pg.inputs); err != nil {
				t.Fatalf("%s: CalibrateScales: %v", name, err)
			}
		} else {
			for v := range scales {
				scales[v] = make([]float64, p.vals[v].width)
			}
		}
		for _, cfg := range []Config{
			{Workers: 1},
			{TileRows: 7},
			{Workers: 1, Elem: I8, Scales: scales},
			{TileRows: 7, Elem: I8, Scales: scales},
		} {
			m, err := p.NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s %s tile=%d: %v", name, cfg.Elem, cfg.TileRows, err)
			}
			all, err := p.keepAll().NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.BufferBytes() >= all.BufferBytes() {
				t.Fatalf("%s %s tile=%d: BufferBytes %d, not below a buffer per value's %d", name, cfg.Elem, cfg.TileRows, m.BufferBytes(), all.BufferBytes())
			}
		}

		// Live ranges, written out plainly: first write to last read, the
		// kept values, the output and everything a halo op touches to the
		// end of the run.
		first, last := map[int]int{}, map[int]int{}
		for i, op := range p.ops {
			for _, s := range op.Srcs {
				last[s] = i
			}
			if op.Epi.Res >= 0 {
				last[op.Epi.Res] = i
			}
			if op.Dst >= 0 {
				if _, ok := first[op.Dst]; !ok {
					first[op.Dst] = i
				}
				last[op.Dst] = max(last[op.Dst], i)
			}
			if op.Kind == OpHalo {
				last[op.Srcs[0]], last[op.Dst] = len(p.ops), len(p.ops)
			}
		}
		for v := range p.vals {
			if p.vals[v].keep || v == p.output {
				last[v] = len(p.ops)
			}
		}
		meet := func(a, b int) bool {
			return first[b] < first[a] && first[a] <= last[b] || first[a] < first[b] && first[b] <= last[a]
		}

		m, err := p.NewMachine(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		storage := func(v int) (uintptr, uintptr) { return sliceStorage(m.spill[v].Data) }
		// Hosted values and their hosts share storage by design; the pairs
		// below move only values that stand alone.
		alone := func(v int) bool {
			if m.spill[v] == nil || m.host[v] >= 0 {
				return false
			}
			for _, h := range m.host {
				if h == v {
					return false
				}
			}
			return true
		}
		for a := range p.vals {
			for b := range p.vals {
				if a == b || !alone(a) || !alone(b) {
					continue
				}
				// a now shares storage with b and with whatever the plan
				// put in b's slot too.
				want := false
				bb, bn := storage(b)
				for c := range p.vals {
					if c == a || m.spill[c] == nil {
						continue
					}
					if cb, cn := storage(c); cb < bb+bn && bb < cb+cn {
						want = want || meet(a, c)
					}
				}
				saved := m.spill[a]
				m.spill[a] = m.spill[b]
				err := p.checkStorage(m.host, storage)
				m.spill[a] = saved
				if (err != nil) != want {
					t.Fatalf("%s: value %d moved onto value %d's slot (live %d..%d and %d..%d): proof says %v, want refusal %v", name, a, b, first[a], last[a], first[b], last[b], err, want)
				}
			}
		}
	}
}
