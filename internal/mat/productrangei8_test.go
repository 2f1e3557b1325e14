package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The guarded regions the int8 range tests cut their operands from: the
// five float64 operands and the three int8 ones are live together, each
// ending where readable memory does.
const (
	guardVal = iota
	guardDeq
	guardBias
	guardResScales
	guardDstScales
	_
	guardSrc
	guardInput
	guardRes
)

// valueCodesI8 returns the codes the int8 product kernels quantise vals
// to under scale, observed through a product: row k of a CSR holds
// vals[k] alone over a one-row source of eight ones, so under unit scales
// every code of output row k is the multiplier's. The values end where
// readable memory does.
func valueCodesI8(t testing.TB, vals []float64, scale float64) []int8 {
	t.Helper()
	n := len(vals)
	rowPtr, col := make([]int, n+1), make([]int, n)
	for k := range rowPtr {
		rowPtr[k] = k
	}
	val := guardedF64(t, guardVal, n)
	copy(val, vals)
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	e := CheckEpilogueI8(8, ones, nil, nil, ones, false, false)
	c := CheckCSR(rowPtr, col, val, 0, n, 0, 1)
	dst, fenced := fencedRow[int8](8 * n)
	e.SparseRange(dst, &c, scale, []int8{1, 1, 1, 1, 1, 1, 1, 1}, nil, make([]int32, 8), nil)
	codes := make([]int8, n)
	for k := range codes {
		codes[k] = dst[8*k]
		for j := 1; j < 8; j++ {
			if dst[8*k+j] != codes[k] {
				t.Fatalf("multiplier %d (%g under %g): row %v is not one code", k, vals[k], scale, dst[8*k:8*k+8])
			}
		}
	}
	if !fenced() {
		t.Fatalf("%d multipliers under %g: wrote outside their rows", n, scale)
	}
	return codes
}

// valueScalesI8 are the value-scale kinds of the range table: the scale a
// driver derives from the largest magnitude, and the ones QuantizeI8
// answers with zero codes or with clamps.
var valueScalesI8 = []struct {
	name  string
	scale float64
}{
	{"normal", 1.0 / 127}, {"zero", 0}, {"negative", -0.5}, {"NaN", math.NaN()}, {"tiny", 1e-300},
}

// drawValueI8 is a multiplier of magnitude up to 1.3 × 127 scales — a
// few clamp — or, under special one time in six, NaN, ±0, ±Inf, a
// denormal or the largest finite.
func drawValueI8(rng *rand.Rand, scale float64, special bool) float64 {
	if special && rng.Intn(6) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	if !(scale > 0) {
		scale = 1
	}
	return scale * 127 * 1.3 * (2*rng.Float64() - 1)
}

// rangeCaseI8 is the requantise operands of a rows×p int8 product, each
// ending where readable memory does, and the flags.
type rangeCaseI8 struct {
	p                               int
	deq, bias, resScales, dstScales []float64
	res                             []int8 // rows·p, or nil
	relu, wide                      bool
}

// newRangeCaseI8 draws them under mix (bit 0 bias, bit 1 residual, bit 2
// ReLU, bit 3 wide argmax) for rows whose sums run to about
// √terms·127²/4: the destination scales from the requantise table's
// kinds, deq a power of two times them that lands the quotients across
// ±200 — so codes of both signs, clamps and, under the power-of-two
// scales, exact ties all occur — bias a multiple of half a step, the
// residual scales a power of two steps; under special, one bias in six
// is NaN, ±0, ±Inf or an extreme.
func newRangeCaseI8(t testing.TB, rng *rand.Rand, rows, p, terms int, mix uint8, scaleKind int, special bool) rangeCaseI8 {
	c := rangeCaseI8{p: p, relu: mix&4 != 0, wide: mix&8 != 0}
	c.deq, c.dstScales = guardedF64(t, guardDeq, p), guardedF64(t, guardDstScales, p)
	shift := math.Ceil(math.Log2(math.Sqrt(float64(terms+1)) * 4000 / 60))
	for j := range c.dstScales {
		k := scaleKind
		if requantScales[k].draw == nil {
			k = rng.Intn(len(requantScales) - 1)
		}
		c.dstScales[j] = requantScales[k].draw(rng)
		c.deq[j] = math.Ldexp(c.dstScales[j], -int(shift)+rng.Intn(3)-1)
	}
	if mix&1 != 0 {
		c.bias = guardedF64(t, guardBias, p)
		for j := range c.bias {
			c.bias[j] = float64(rng.Intn(240)-120) / 2 * c.dstScales[j]
			if special && rng.Intn(6) == 0 {
				c.bias[j] = specials[rng.Intn(len(specials))]
			}
		}
	}
	if mix&2 != 0 {
		c.resScales, c.res = guardedF64(t, guardResScales, p), guardedI8At(t, guardRes, rows*p)
		for j := range c.resScales {
			c.resScales[j] = math.Ldexp(c.dstScales[j], -rng.Intn(3))
		}
		for j := range c.res {
			c.res[j] = int8(rng.Intn(256) - 128)
		}
	}
	return c
}

func (c *rangeCaseI8) epilogue() CheckedEpilogueI8 {
	return CheckEpilogueI8(c.p, c.deq, c.bias, c.resScales, c.dstScales, c.relu, c.wide)
}

// resRows returns the residual codes of rows [lo, hi).
func (c *rangeCaseI8) resRows(lo, hi int) []int8 {
	if c.res == nil {
		return nil
	}
	return c.res[lo*c.p : hi*c.p]
}

// oracleRow is the composition written out for row i: the portable
// requantise row of the portable row accumulate of codes over src.
func (c *rangeCaseI8) oracleRow(i int, codes []int32, idx []int, src []int8) ([]int8, int) {
	acc := make([]int32, c.p)
	if len(codes) > 0 {
		rowAccI8Go(acc, codes, idx, src, false)
	}
	dst := make([]int8, c.p)
	am := requantRowGo(dst, acc, c.deq, c.bias, c.resRows(i, i+1), c.resScales, c.dstScales, 0, c.relu, c.wide)
	return dst, am
}

// rangeRunI8 computes rows [lo, hi) into dst with residual rows res,
// the scratch row acc and labels (nil unless the case asks for the wide
// argmax).
type rangeRunI8 func(dst, res []int8, lo, hi int, acc []int32, labels []int)

// requireRangeI8 holds run to the oracle's codes and labels on every
// sub-range of the rows: into a destination between canaries, the labels
// and the scratch row likewise, and — with a residual — in place over the
// residual rows.
func (c *rangeCaseI8) requireRangeI8(t testing.TB, what string, rows int, want []int8, wantAm []int, run rangeRunI8) {
	t.Helper()
	p := c.p
	for _, r := range subRanges(rows) {
		lo, hi := r[0], r[1]
		for _, inPlace := range []bool{false, true} {
			if inPlace && c.res == nil {
				continue
			}
			got, fenced := fencedRow[int8]((hi - lo) * p)
			res := c.resRows(lo, hi)
			if inPlace {
				copy(got, res)
				res = got
			}
			var labels []int
			labelsFenced := func() bool { return true }
			if c.wide {
				labels, labelsFenced = fencedRow[int](hi - lo)
			}
			acc, accFenced := fencedRow[int32](p) // its canaries inside too: the range must overwrite, never read
			run(got, res, lo, hi, acc, labels)
			if j := firstDiffI8(got, want[lo*p:hi*p]); j >= 0 {
				t.Fatalf("%s rows [%d,%d) in place %v: row %d col %d = %d, composition %d", what, lo, hi, inPlace, lo+j/p, j%p, got[j], want[lo*p+j])
			}
			for i, am := range labels {
				if am != wantAm[lo+i] {
					t.Fatalf("%s rows [%d,%d) in place %v: row %d labelled %d, composition %d", what, lo, hi, inPlace, lo+i, am, wantAm[lo+i])
				}
			}
			if !fenced() || !labelsFenced() || !accFenced() {
				t.Fatalf("%s rows [%d,%d) in place %v: wrote outside its rows (codes intact %v, labels intact %v, sums intact %v)", what, lo, hi, inPlace, fenced(), labelsFenced(), accFenced())
			}
		}
	}
}

// checkSparseRangeI8 holds the sparse range entry, whole and cut into
// batches (CheckedCSR.Batch) whose values are copies of the CSR's, to
// requantRowGo ∘ rowAccI8Go over QuantizeI8's codes: a CSR whose rows
// hold counts float64 values under the value scale, over a source of one
// to nine rows — at least eight codes, so the assembly runs where there
// is one. CSR values, residual, bias and the three scale vectors each end
// where readable memory does, and so does the source, its last row always
// read — or, at every third width, it starts where readable memory does,
// its first row always read.
func checkSparseRangeI8(t testing.TB, rng *rand.Rand, p int, counts []int, mix uint8, scaleKind, valueScale int, special bool) {
	t.Helper()
	rows := len(counts)
	srcRows := (7+p)/p + rng.Intn(9)
	src, flush := guardedI8At(t, guardSrc, srcRows*p), srcRows-1
	if p%3 == 0 {
		src, flush = guardedI8(t, srcRows*p, false), 0
	}
	for j := range src {
		src[j] = int8(rng.Intn(256) - 128)
	}
	vs := valueScalesI8[valueScale]
	nnz, most := 0, 0
	for _, n := range counts {
		nnz, most = nnz+n, max(most, n)
	}
	rowPtr, col, val := make([]int, rows+1), make([]int, nnz), guardedF64(t, guardVal, nnz)
	for i, n := range counts {
		rowPtr[i+1] = rowPtr[i] + n
	}
	for k := range col {
		col[k], val[k] = rng.Intn(srcRows), drawValueI8(rng, vs.scale, special)
	}
	if nnz > 0 {
		col[rng.Intn(nnz)] = flush
	}
	c := newRangeCaseI8(t, rng, rows, p, most, mix, scaleKind, special)
	e := c.epilogue()
	what := fmt.Sprintf("sparse p=%d terms=%v mix=%04b scales=%s values under %s special=%v", p, counts, mix, requantScales[scaleKind].name, vs.name, special)

	want, wantAm := make([]int8, rows*p), make([]int, rows)
	for i := range counts {
		at, end := rowPtr[i], rowPtr[i+1]
		codes := make([]int32, end-at)
		for k, v := range val[at:end] {
			codes[k] = int32(QuantizeI8(v, vs.scale))
		}
		row, am := c.oracleRow(i, codes, col[at:end], src)
		copy(want[i*p:], row)
		wantAm[i] = am
	}
	c.requireRangeI8(t, what, rows, want, wantAm, func(dst, res []int8, lo, hi int, acc []int32, labels []int) {
		cc := CheckCSR(rowPtr, col, val, lo, hi, 0, srcRows)
		e.SparseRange(dst, &cc, vs.scale, src, res, acc, labels)
	})
	c.requireRangeI8(t, what+" batches", rows, want, wantAm, func(dst, res []int8, lo, hi int, acc []int32, labels []int) {
		span := CheckCSR(rowPtr, col, val, lo, hi, 0, srcRows)
		var ptr [4]int
		for b := 0; b < hi-lo; {
			e2 := min(hi-lo, b+1+rng.Intn(3))
			batch := span.Batch(ptr[:], b, e2, append([]float64(nil), val[rowPtr[lo+b]:rowPtr[lo+e2]]...))
			var bl []int
			if labels != nil {
				bl = labels[b:e2]
			}
			var br []int8
			if res != nil {
				br = res[b*p : e2*p]
			}
			e.SparseRange(dst[b*p:e2*p], &batch, vs.scale, src, br, acc, bl)
			b = e2
		}
	})
}

// checkDenseRangeI8 holds the dense range entry to the same composition
// applied to the non-zero codes of each input row: one input row per zero
// pattern of the row-accumulate table (none, all, alternating, first and
// last only), n codes each, the last input row ending where readable
// memory does, times an n×p matrix that does too.
func checkDenseRangeI8(t testing.TB, rng *rand.Rand, p, n int, mix uint8, scaleKind int, special bool) {
	t.Helper()
	rows := len(zeroPatterns)
	a := &MatrixI8{Rows: rows, Cols: n, Data: guardedI8At(t, guardInput, rows*n)}
	for i := 0; i < rows; i++ {
		for k := 0; k < n; k++ {
			a.Data[i*n+k] = 0
			if !zeroPatterns[i].zero(k, n) {
				a.Data[i*n+k] = int8(1 + rng.Intn(127))
				if rng.Intn(2) == 0 {
					a.Data[i*n+k] = -a.Data[i*n+k]
				}
			}
		}
	}
	w := &MatrixI8{Rows: n, Cols: p, Data: guardedI8At(t, guardSrc, n*p)}
	for j := range w.Data {
		w.Data[j] = int8(rng.Intn(256) - 128)
	}
	c := newRangeCaseI8(t, rng, rows, p, n/2, mix, scaleKind, special)
	what := fmt.Sprintf("dense p=%d n=%d mix=%04b scales=%s special=%v", p, n, mix, requantScales[scaleKind].name, special)

	want, wantAm := make([]int8, rows*p), make([]int, rows)
	for i := 0; i < rows; i++ {
		var codes []int32
		var idx []int
		for k, v := range a.Data[i*n : (i+1)*n] {
			if v != 0 {
				codes, idx = append(codes, int32(v)), append(idx, k)
			}
		}
		row, am := c.oracleRow(i, codes, idx, w.Data)
		copy(want[i*p:], row)
		wantAm[i] = am
	}
	c.requireRangeI8(t, what, rows, want, wantAm, func(dst, res []int8, lo, hi int, acc []int32, labels []int) {
		var rm *MatrixI8
		if res != nil {
			rm = &MatrixI8{Rows: hi - lo, Cols: p, Data: res}
		}
		MatMulI8EpilogueInto(&MatrixI8{Rows: hi - lo, Cols: p, Data: dst}, &MatrixI8{Rows: hi - lo, Cols: n, Data: a.Data[lo*n : hi*n]}, w,
			c.deq, c.bias, rm, c.resScales, c.relu, c.dstScales, acc, labels)
	})
}

// TestProductRangeI8Differential holds the two int8 range entries and
// the sparse range's batches (one AVX2 routine where the CPU has it) to
// the composition they stand for, requantRowGo ∘ rowAccI8Go with the
// multipliers through QuantizeI8, code for code and label for label:
// widths 1…40, 64 and 100 × bias × residual (separate and aliasing the
// destination) × ReLU × wide argmax × lo/hi sub-ranges, the operator's
// last rows among them, × the destination-scale kinds of the requantise
// table. Sparse: rows of {0, 1, 5, 127, 128, 129, 300} terms with empty
// rows first, in the middle and last — so rows end inside a window of
// value codes, on its edge and across two and three — under value scales
// {normal, 0, negative, NaN, tiny}, the values plain (a few clamp) and with NaN, ±0, ±Inf and
// extremes among them. Dense: inner dimensions {0, 1, 127, 128, 129, 300}
// × input rows all-zero, half-zero, zero but for their ends, full. Every
// destination and label row sits between canaries; the source's last row,
// the CSR values, the last input row, residual, bias and the three scale
// vectors each end at a page the process cannot read, so an over-read
// faults.
func TestProductRangeI8Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, p := range productRangeWidths() {
		for mix := uint8(0); mix < 16; mix++ {
			special := (int(mix)+p)%2 == 0
			for ti, terms := range productRowTerms {
				counts := []int{0, terms, 1 + rng.Intn(6), 0, rng.Intn(4), terms, 0}
				sk := (ti + int(mix) + p) % len(requantScales)
				for vs := range valueScalesI8 {
					if vs > 0 && terms != 5 && (vs+ti+p)%5 != 0 {
						continue // every value scale at five terms, one in rotation elsewhere
					}
					checkSparseRangeI8(t, rng, p, counts, mix, sk, vs, special)
				}
			}
			for ni, n := range []int{0, 1, 127, 128, 129, 300} {
				checkDenseRangeI8(t, rng, p, n, mix, (ni+int(mix)+p)%len(requantScales), special)
			}
		}
	}
}

// TestProductRangeI8ExtremeCodes runs the dense range over the largest
// products an int8 code pair makes — inputs and weights all −128, so every
// pair of terms sums to 2¹⁵, then drawn from {−128, 0, 127} — against the
// portable range. The destination scale maps n·128² to 127, so a sum
// short by one product's worth changes a code.
func TestProductRangeI8ExtremeCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows = 4
	for _, p := range productRangeWidths() {
		for _, n := range []int{1, 2, 3, 128, 129, 300} {
			deq, scales := make([]float64, p), make([]float64, p)
			for j := range deq {
				deq[j], scales[j] = 1, float64(n)*128*128/127
			}
			e := CheckEpilogueI8(p, deq, nil, nil, scales, false, false)
			for _, mixed := range []bool{false, true} {
				a, w := make([]int8, rows*n), make([]int8, n*p)
				for _, codes := range [][]int8{a, w} {
					for i := range codes {
						codes[i] = -128
						if mixed {
							codes[i] = []int8{-128, 0, 127}[rng.Intn(3)]
						}
					}
				}
				got, want, acc := make([]int8, rows*p), make([]int8, rows*p), make([]int32, p)
				denseRangeI8(&e, got, a, n, w, nil, rows, acc, nil)
				denseRangeI8Go(&e, want, a, n, w, nil, rows, acc, nil)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("p=%d n=%d mixed=%v: code %d (row %d col %d) = %d, portable %d", p, n, mixed, k, k/p, k%p, got[k], want[k])
					}
				}
			}
		}
	}
}

// FuzzProductRangeI8 drives the int8 range entries and the sparse
// range's batches with fuzzed widths, row lengths, inner dimensions,
// operand mixes and scale kinds against the composition, under
// TestProductRangeI8Differential's guards.
func FuzzProductRangeI8(f *testing.F) {
	f.Add(int64(1), uint8(64), uint16(300), uint16(100), uint8(15), uint8(0), uint8(0), true)
	f.Add(int64(2), uint8(3), uint16(6), uint16(129), uint8(1), uint8(1), uint8(1), false)
	f.Add(int64(3), uint8(33), uint16(129), uint16(1), uint8(14), uint8(6), uint8(3), true)
	f.Add(int64(4), uint8(7), uint16(0), uint16(0), uint8(2), uint8(4), uint8(4), false)
	f.Add(int64(5), uint8(16), uint16(1), uint16(300), uint8(5), uint8(5), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, width uint8, terms, inner uint16, mix, scaleKind, valueScale uint8, special bool) {
		rng := rand.New(rand.NewSource(seed))
		p, n := 1+int(width)%100, int(inner)%320
		sk, vs := int(scaleKind)%len(requantScales), int(valueScale)%len(valueScalesI8)
		counts := make([]int, 1+rng.Intn(9))
		for i := range counts {
			switch rng.Intn(3) {
			case 0:
				counts[i] = int(terms) % 400
			case 1:
				counts[i] = rng.Intn(7)
			}
		}
		checkSparseRangeI8(t, rng, p, counts, mix&15, sk, vs, special)
		checkDenseRangeI8(t, rng, p, n, mix&15, sk, special)
	})
}
