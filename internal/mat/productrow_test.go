package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// productRowTerms are the multiplier counts of the differential table:
// none (the row clears to its bias-only code), one, a few, and counts
// around one RowChunk window and beyond two.
var productRowTerms = []int{0, 1, 5, 127, 128, 129, 300}

// productRowCase is one product row's operands: the epilogue's, the
// accumulate's — float64 multipliers under their scale, as the row door
// takes them — and start, the int32 row the accumulate begins from.
type productRowCase struct {
	p          int
	epilogue   requantCase
	alpha      []float64
	scale      float64
	idx        []int
	rows       int
	src        []int8 // exactly rows·p long, flush against unreadable memory
	start      []int32
	cont       bool
	relu, wide bool
}

// codes are the row's multipliers as the contract quantises them.
func (c *productRowCase) codes() []int32 {
	q := make([]int32, len(c.alpha))
	for k, v := range c.alpha {
		q[k] = int32(QuantizeI8(v, c.scale))
	}
	return q
}

// newProductRowCase draws a p-column row of terms multipliers over a
// source of one to nine rows that ends where readable memory does
// (guardedI8), the last source row always among the terms — or, one time
// in three, starts where it does, the first row among them. The
// multipliers are reals under a scale that puts one in four at zero and a
// few past the clamp. The epilogue operands come from the requantise
// table's kinds (newRequantCase); its accumulator column is the target
// the sums are steered to when the row continues — the starting
// accumulator is the target minus the terms, wrapping — so the exact
// ties, the clamps and the argmax rows of those kinds reach the fused
// requantise as they reach the unfused one. A row that starts fresh
// requantises whatever its terms sum to.
func newProductRowCase(t testing.TB, rng *rand.Rand, p, terms int, hasBias, hasRes, relu, wide, cont bool, scaleKind, valueKind int) productRowCase {
	c := productRowCase{p: p, cont: cont, relu: relu, wide: wide, rows: 1 + rng.Intn(9), scale: 0.01 + rng.Float64()}
	c.epilogue = newRequantCase(rng, p, true, hasBias, hasRes, scaleKind, valueKind)
	atEnd := rng.Intn(3) > 0
	c.src = guardedI8(t, c.rows*p, atEnd)
	for i := range c.src {
		c.src[i] = int8(rng.Intn(256) - 128)
	}
	c.alpha, c.idx = make([]float64, terms), make([]int, terms)
	for k := range c.alpha {
		c.idx[k] = rng.Intn(c.rows)
		if rng.Intn(4) > 0 {
			c.alpha[k] = c.scale * 130 * (2*rng.Float64() - 1)
		}
	}
	if terms > 0 { // the row flush against the guard is always read
		flush := 0
		if atEnd {
			flush = c.rows - 1
		}
		c.idx[rng.Intn(terms)] = flush
	}
	c.start = make([]int32, p)
	for j := range c.start {
		c.start[j] = rng.Int31() // a fresh row must not read it
	}
	if cont {
		copy(c.start, c.epilogue.acc)
		for k, a := range c.codes() {
			for j := range c.start {
				c.start[j] -= a * int32(c.src[c.idx[k]*p+j])
			}
		}
	}
	return c
}

func (c *productRowCase) String() string {
	e := &c.epilogue
	return fmt.Sprintf("p=%d terms=%d rows=%d bias=%v res=%v relu=%v argmax=%v cont=%v", c.p, len(c.alpha), c.rows, e.bias != nil, e.res != nil, c.relu, c.wide, c.cont)
}

// oracle is the composition written out: the portable requantise row of
// the portable row accumulate of the multipliers' QuantizeI8 codes, on
// copies.
func (c *productRowCase) oracle() ([]int8, int) {
	e := &c.epilogue
	acc := append([]int32(nil), c.start...)
	switch {
	case len(c.alpha) > 0:
		rowAccI8Go(acc, c.codes(), c.idx, c.src, c.cont)
	case !c.cont:
		clear(acc)
	}
	dst := make([]int8, c.p)
	am := requantRowGo(dst, acc, e.deq, e.bias, e.res, e.resScales, e.dst, 0, c.relu, c.wide)
	return dst, am
}

// check holds the dispatched product row to the oracle — through the
// exported door, or, for a row that continues a sum (which no caller of
// the door asks for; the routine continues its own windows), the dispatch
// beneath it — and, with a residual, in place over the residual row;
// every destination between canaries.
func (c *productRowCase) check(t testing.TB, where string) {
	t.Helper()
	e := &c.epilogue
	want, wantAm := c.oracle()
	epi := CheckEpilogueI8(c.p, e.deq, e.bias, e.resScales, e.dst, c.relu, c.wide)
	checked := CheckIndices(c.idx, c.rows)
	for _, form := range []string{"one call", "in place"} {
		got, fenced := fencedRow[int8](c.p)
		acc := append([]int32(nil), c.start...)
		res := e.res
		if form == "in place" {
			if e.res == nil {
				continue
			}
			copy(got, e.res)
			res = got
		}
		var am int
		if c.cont {
			am = productRowI8(&epi, got, acc, c.alpha, c.scale, checked, c.src, res, true)
		} else {
			am = epi.ProductRow(got, acc, c.alpha, c.scale, checked, c.src, res)
		}
		if j := firstDiffI8(got, want); j >= 0 || am != wantAm || !fenced() {
			t.Fatalf("%s, %s (%s): elem %d, argmax %d, fence intact %v; composition %v argmax %d, got %v",
				c, where, form, j, am, fenced(), want, wantAm, got)
		}
	}
}

// TestProductRowI8Differential holds the int8 row door (the AVX2 range
// routine handed one row where the CPU has it) to the composition it
// stands for, requantRowGo ∘ rowAccI8Go over QuantizeI8's codes: widths
// 1…40 and 64 (across 3, 7, 8, 9, 16, 31, 32, 33) × terms {0, 1, 5, 127,
// 128, 129, 300} — one window of multipliers, and across two and three —
// × bias × residual (separate and aliasing dst) × ReLU × wide argmax ×
// fresh and continued rows × the seven destination-scale kinds and six
// value kinds of the requantise table (exact ties, clamps, NaN and ±Inf, all-equal and
// all-−Inf rows for the argmax rules). The source ends at a page the
// process cannot read and its last row is always a term, so a load that
// strays past idx.rows·p faults; dst sits between canaries.
func TestProductRowI8Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	widths := []int{64}
	for p := 1; p <= 40; p++ {
		widths = append(widths, p)
	}
	for _, p := range widths {
		for _, terms := range productRowTerms {
			for mix := 0; mix < 32; mix++ {
				hasBias, hasRes, relu, wide, cont := mix&1 != 0, mix&2 != 0, mix&4 != 0, mix&8 != 0, mix&16 != 0
				for sk := range requantScales {
					for vk := range requantValues {
						if terms > 5 && (sk+vk+mix+p)%3 != 0 {
							continue // a third of the long rows: they are the slow ones
						}
						c := newProductRowCase(t, rng, p, terms, hasBias, hasRes, relu, wide, cont, sk, vk)
						c.check(t, fmt.Sprintf("scales=%s values=%s", requantScales[sk].name, requantValues[vk].name))
					}
				}
			}
		}
	}
}

// TestProductRowRejectsBadOperands: an epilogue operand of the wrong
// length panics where the epilogue is checked, and a row whose slices do
// not fit the checked epilogue, its indices or its source panics before
// the kernel runs — with dst untouched.
func TestProductRowRejectsBadOperands(t *testing.T) {
	f5, f4 := make([]float64, 5), make([]float64, 4)
	epi := CheckEpilogueI8(5, f5, f5, nil, f5, true, true)
	withRes := CheckEpilogueI8(5, f5, nil, f5, f5, false, false)
	src := make([]int8, 3*5)
	idx := CheckIndices([]int{0, 2}, 3)
	alpha := []float64{1, 1}
	dst := []int8{7, 7, 7, 7, 7}
	acc := make([]int32, 5)
	for name, fn := range map[string]func(){
		"short deq":       func() { CheckEpilogueI8(5, f4, nil, nil, f5, false, false) },
		"short bias":      func() { CheckEpilogueI8(5, f5, f4, nil, f5, false, false) },
		"short resScales": func() { CheckEpilogueI8(5, f5, nil, f4, f5, false, false) },
		"short dstScales": func() { CheckEpilogueI8(5, f5, nil, nil, f4, false, false) },
		"long dstScales":  func() { CheckEpilogueI8(4, f4, nil, nil, f5, false, false) },
		"negative width":  func() { CheckEpilogueI8(-1, nil, nil, nil, nil, false, false) },
		"short dst":       func() { epi.ProductRow(dst[:4], acc, alpha, 1, idx, src, nil) },
		"short acc":       func() { epi.ProductRow(dst, acc[:4], alpha, 1, idx, src, nil) },
		"index count":     func() { epi.ProductRow(dst, acc, alpha[:1], 1, idx, src, nil) },
		"short source":    func() { epi.ProductRow(dst, acc, alpha, 1, idx, src[:14], nil) },
		"stray residual":  func() { epi.ProductRow(dst, acc, alpha, 1, idx, src, make([]int8, 5)) },
		"missing residual": func() {
			withRes.ProductRow(dst, acc, alpha, 1, idx, src, nil)
		},
		"short residual": func() { withRes.ProductRow(dst, acc, alpha, 1, idx, src, make([]int8, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	for j, q := range dst {
		if q != 7 {
			t.Fatalf("a refused row wrote dst[%d] = %d", j, q)
		}
	}
	var none CheckedEpilogueI8 // the zero value: a product of no columns
	if am := none.ProductRow(nil, nil, nil, 1, CheckedIndices{}, nil, nil); am != 0 {
		t.Errorf("empty row answered %d", am)
	}
}

// FuzzProductRowI8 drives the product row with fuzzed widths, term
// counts, operand mixes and scale and value kinds against the
// composition, under TestProductRowI8Differential's guards.
func FuzzProductRowI8(f *testing.F) {
	f.Add(int64(1), uint8(64), uint16(300), uint8(31), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint16(6), uint8(9), uint8(1), uint8(1))
	f.Add(int64(3), uint8(33), uint16(129), uint8(22), uint8(6), uint8(3))
	f.Add(int64(4), uint8(7), uint16(0), uint8(3), uint8(4), uint8(5))
	f.Add(int64(5), uint8(19), uint16(1), uint8(16), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, terms uint16, mix, scaleKind, valueKind uint8) {
		rng := rand.New(rand.NewSource(seed))
		p, n := 1+int(width)%96, int(terms)%400
		sk, vk := int(scaleKind)%len(requantScales), int(valueKind)%len(requantValues)
		c := newProductRowCase(t, rng, p, n, mix&1 != 0, mix&2 != 0, mix&4 != 0, mix&8 != 0, mix&16 != 0, sk, vk)
		c.check(t, fmt.Sprintf("scales=%s values=%s", requantScales[sk].name, requantValues[vk].name))
	})
}
