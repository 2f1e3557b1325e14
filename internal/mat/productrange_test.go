package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawF64 is a normal variate, or, under special one time in six, one of
// the values the kernels must not treat specially: ±0, NaN, ±Inf,
// denormals, the largest finite.
func drawF64(rng *rand.Rand, special bool) float64 {
	if special && rng.Intn(6) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64()
}

// rangeEpilogue draws the epilogue of a rows×p product under mix (bit 0
// bias, bit 1 residual, bit 2 ReLU). Bias and residual end exactly where
// readable memory does, so a load past either faults.
func rangeEpilogue(t testing.TB, rng *rand.Rand, rows, p int, mix uint8, special bool) CheckedEpilogue {
	var bias []float64
	var res *Matrix
	if mix&1 != 0 {
		bias = guardedF64(t, 2, p)
		for j := range bias {
			bias[j] = drawF64(rng, special)
		}
	}
	if mix&2 != 0 {
		res = FromSlice(rows, p, guardedF64(t, 1, rows*p))
		for j := range res.Data {
			res.Data[j] = drawF64(rng, special)
		}
	}
	return CheckEpilogue(rows, p, bias, res, mix&4 != 0)
}

// subRanges are the [lo, hi) a rows-row product is computed over: whole,
// without its first row, without its last, its last two (no hint row is
// left for either), its last alone, a middle stretch and an empty one.
func subRanges(rows int) [][2]int {
	at := func(i int) int { return max(0, min(i, rows)) }
	return [][2]int{{0, rows}, {at(1), rows}, {0, at(rows - 1)}, {at(rows - 2), rows}, {at(rows - 1), rows}, {at(2), at(5)}, {at(3), at(3)}}
}

// requireRows holds got to rows [lo, hi) of want, p wide.
func requireRows(t testing.TB, what string, got, want []float64, lo, hi, p int, fenced func() bool) {
	t.Helper()
	if j := sameBits(got, want[lo*p:hi*p]); j >= 0 {
		t.Fatalf("%s rows [%d,%d): row %d col %d = %x, per-row oracle %x", what, lo, hi, lo+j/p, j%p, math.Float64bits(got[j]), math.Float64bits(want[lo*p+j]))
	}
	if !fenced() {
		t.Fatalf("%s rows [%d,%d): wrote outside its rows", what, lo, hi)
	}
}

// checkSparseRange holds the sparse range entry to the per-row oracle —
// rowAccF64Go, then ApplyEpilogueRow (productRowF64Go) — over a CSR whose
// rows hold counts terms, bit for bit, on every sub-range, and on the
// whole range cut into batches (CheckedCSR.Batch) whose values are copies
// of the CSR's. The source is either a few rows ending where readable memory
// does, its last row always read, or (big) the shared source large enough
// that the assembly issues its look-ahead hints. The column indices after
// a range are only ever hints, so they are overwritten with anything at
// all before the range runs.
func checkSparseRange(t testing.TB, rng *rand.Rand, p int, counts []int, mix uint8, special, big bool) {
	t.Helper()
	rows := len(counts)
	var src []float64
	var srcRows int
	if big {
		src = hintedSrc()
		srcRows = len(src) / p
	} else {
		srcRows = 1 + rng.Intn(9)
		src = guardedF64(t, 0, srcRows*p)
		for j := range src {
			src[j] = drawF64(rng, special)
		}
	}
	rowPtr := make([]int, rows+1)
	var col []int
	var val []float64
	for i, n := range counts {
		for k := 0; k < n; k++ {
			col, val = append(col, rng.Intn(srcRows)), append(val, drawF64(rng, special))
		}
		rowPtr[i+1] = len(col)
	}
	if len(col) > 0 {
		col[rng.Intn(len(col))] = srcRows - 1
	}
	e := rangeEpilogue(t, rng, rows, p, mix, special)
	what := fmt.Sprintf("sparse p=%d terms=%v mix=%03b special=%v big=%v", p, counts, mix, special, big)

	want := make([]float64, rows*p)
	for i := range counts {
		at, end := rowPtr[i], rowPtr[i+1]
		productRowF64Go(&e, want[i*p:(i+1)*p], val[at:end], col[at:end], src, i)
	}
	for _, r := range subRanges(rows) {
		lo, hi := r[0], r[1]
		wild := append([]int(nil), col...)
		for k := rowPtr[hi]; k < len(wild); k++ {
			if rng.Intn(2) == 0 {
				wild[k] = int(rng.Uint64())
			}
		}
		c := CheckCSR(rowPtr, wild, val, lo, hi, 2, srcRows)
		got, fenced := fencedRow[float64]((hi - lo) * p)
		e.SparseRange(got, &c, src, lo)
		requireRows(t, what, got, want, lo, hi, p, fenced)
	}
	span := CheckCSR(rowPtr, col, val, 0, rows, 2, srcRows)
	got, fenced := fencedRow[float64](rows * p)
	var ptr [6]int
	for b := 0; b < rows; {
		e2 := min(rows, b+1+rng.Intn(3))
		batch := span.Batch(ptr[:], b, e2, append([]float64(nil), val[rowPtr[b]:rowPtr[e2]]...))
		e.SparseRange(got[b*p:e2*p], &batch, src, b)
		b = e2
	}
	requireRows(t, what+" batches", got, want, 0, rows, p, fenced)
}

// checkDenseRange holds the dense range entry to the same oracle applied
// to the non-zero entries of each input row: one input row per zero
// pattern of the row-accumulate table (none, all, alternating, first and
// last only) and one of special values, n entries each, times an n×p
// matrix that ends where readable memory does.
func checkDenseRange(t testing.TB, rng *rand.Rand, p, n int, mix uint8, special bool) {
	t.Helper()
	rows := len(zeroPatterns) + 1
	a := New(rows, n)
	for i := 0; i < rows; i++ {
		for k := 0; k < n; k++ {
			switch {
			case i == len(zeroPatterns):
				a.Data[i*n+k] = drawF64(rng, true)
			case !zeroPatterns[i].zero(k, n):
				a.Data[i*n+k] = drawF64(rng, special)
			case rng.Intn(2) == 0:
				a.Data[i*n+k] = math.Copysign(0, -1)
			}
		}
	}
	b := FromSlice(n, p, guardedF64(t, 0, n*p))
	for j := range b.Data {
		b.Data[j] = drawF64(rng, special)
	}
	e := rangeEpilogue(t, rng, rows, p, mix, special)
	what := fmt.Sprintf("dense p=%d n=%d mix=%03b special=%v", p, n, mix, special)

	want := make([]float64, rows*p)
	for i := 0; i < rows; i++ {
		var ka []float64
		var ki []int
		for k, v := range a.Data[i*n : (i+1)*n] {
			if v != 0 {
				ka, ki = append(ka, v), append(ki, k)
			}
		}
		productRowF64Go(&e, want[i*p:(i+1)*p], ka, ki, b.Data, i)
	}
	for _, r := range subRanges(rows) {
		lo, hi := r[0], r[1]
		got, fenced := fencedRow[float64](rows * p)
		for j := range got {
			got[j] = 7
		}
		matMulEpilogueRange(a, b, FromSlice(rows, p, got), lo, hi, &e)
		for j, v := range got {
			if (j < lo*p || j >= hi*p) && v != 7 {
				t.Fatalf("%s rows [%d,%d): wrote row %d", what, lo, hi, j/p)
			}
		}
		requireRows(t, what, got[lo*p:hi*p], want, lo, hi, p, fenced)
	}
}

// productRowTerms are the row lengths of the differential tables: none
// (the row clears to its epilogue), one, a few, and counts around one
// RowChunk window and beyond two.
var productRowTerms = []int{0, 1, 5, 127, 128, 129, 300}

// productRangeWidths cross every column block and tail of the kernel:
// 1…40, 64 and 100.
func productRangeWidths() []int {
	widths := []int{64, 100}
	for p := 1; p <= 40; p++ {
		widths = append(widths, p)
	}
	return widths
}

// TestProductRangeF64Differential holds the two fp64 range entries and
// the sparse range's batches (one AVX2 routine where the CPU has it) to
// the per-row oracle, rowAccF64Go then ApplyEpilogueRow, bit for bit:
// widths 1…40, 64 and 100 × bias × residual × ReLU × plain and special
// values (NaN, ±0, ±Inf, denormals) × lo/hi sub-ranges, the CSR's last
// rows (no hint rows left) among them. Sparse: rows of {0, 1, 5, 127, 128, 129, 300} terms
// with empty rows first, in the middle and last, over a small source and
// over one large enough for the look-ahead hints to be issued. Dense:
// inner dimensions {0, 1, 127, 128, 129, 300} (one window of the
// compaction, and across two and three) × input rows all-zero, half-zero,
// zero but for their ends, full. Every destination sits between canaries;
// source, residual and bias each end at a page the process cannot read,
// so an over-read faults.
func TestProductRangeF64Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range productRangeWidths() {
		for mix := uint8(0); mix < 8; mix++ {
			for _, special := range []bool{false, true} {
				for _, terms := range productRowTerms {
					counts := []int{0, terms, 1 + rng.Intn(6), 0, rng.Intn(4), terms, 0}
					checkSparseRange(t, rng, p, counts, mix, special, terms == 5 || (terms == 129 && p%8 == 0))
				}
				for _, n := range []int{0, 1, 127, 128, 129, 300} {
					checkDenseRange(t, rng, p, n, mix, special)
				}
			}
		}
	}
}

// TestProductRangeRejectsBadOperands: a bias, a residual, an int8
// epilogue operand or a CSR that does not fit panics where it is checked,
// and a range of either tier whose slices do not fit what was checked —
// destination, source, residual present or absent against the epilogue,
// accumulator row, labels — panics before the kernel runs, with the
// destination untouched.
func TestProductRangeRejectsBadOperands(t *testing.T) {
	const rows, p = 3, 5
	src := make([]float64, 4*p)
	rowPtr, col, val := []int{0, 2, 2, 3}, []int{0, 3, 1}, []float64{1, 1, 1}
	e := CheckEpilogue(rows, p, make([]float64, p), New(rows, p), true)
	c := CheckCSR(rowPtr, col, val, 0, rows, 2, 4)
	dst := make([]float64, rows*p)
	for j := range dst {
		dst[j] = 7
	}
	shortRes := New(rows, p)
	shortRes.Data = shortRes.Data[:rows*p-1]
	f5, f4 := make([]float64, p), make([]float64, p-1)
	e8 := CheckEpilogueI8(p, f5, f5, nil, f5, true, true)
	withRes8 := CheckEpilogueI8(p, f5, nil, f5, f5, false, false)
	src8, dst8, res8, acc, labels := make([]int8, 4*p), make([]int8, rows*p), make([]int8, rows*p), make([]int32, p), make([]int, rows)
	for j := range dst8 {
		dst8[j] = 7
	}
	for name, fn := range map[string]func(){
		"int8 short deq":        func() { CheckEpilogueI8(p, f4, nil, nil, f5, false, false) },
		"int8 short bias":       func() { CheckEpilogueI8(p, f5, f4, nil, f5, false, false) },
		"int8 short resScales":  func() { CheckEpilogueI8(p, f5, nil, f4, f5, false, false) },
		"int8 short dstScales":  func() { CheckEpilogueI8(p, f5, nil, nil, f4, false, false) },
		"int8 long dstScales":   func() { CheckEpilogueI8(p-1, f4, nil, nil, f5, false, false) },
		"int8 negative width":   func() { CheckEpilogueI8(-1, nil, nil, nil, nil, false, false) },
		"int8 short dst":        func() { e8.SparseRange(dst8[:rows*p-1], &c, 1, src8, nil, acc, labels) },
		"int8 short acc":        func() { e8.SparseRange(dst8, &c, 1, src8, nil, acc[:p-1], labels) },
		"int8 short source":     func() { e8.SparseRange(dst8, &c, 1, src8[:4*p-1], nil, acc, labels) },
		"int8 short labels":     func() { e8.SparseRange(dst8, &c, 1, src8, nil, acc, labels[:rows-1]) },
		"int8 stray residual":   func() { e8.SparseRange(dst8, &c, 1, src8, res8, acc, labels) },
		"int8 missing residual": func() { withRes8.SparseRange(dst8, &c, 1, src8, nil, acc, nil) },
		"int8 short residual":   func() { withRes8.SparseRange(dst8, &c, 1, src8, res8[:rows*p-1], acc, nil) },
		"short bias":            func() { CheckEpilogue(rows, p, make([]float64, p-1), nil, false) },
		"long bias":             func() { CheckEpilogue(rows, p, make([]float64, p+1), nil, false) },
		"short residual":        func() { CheckEpilogue(rows, p, nil, New(rows-1, p), false) },
		"narrow residual":       func() { CheckEpilogue(rows, p, nil, New(rows, p-1), false) },
		"residual storage":      func() { CheckEpilogue(rows, p, nil, shortRes, false) },
		"negative row ptr":      func() { CheckCSR([]int{-1, 2, 2, 3}, col, val, 0, rows, 2, 4) },
		"falling row ptr":       func() { CheckCSR([]int{0, 2, 1, 3}, col, val, 0, rows, 2, 4) },
		"row ptr past nnz":      func() { CheckCSR([]int{0, 2, 2, 4}, col, val, 0, rows, 2, 4) },
		"hint row past nnz":     func() { CheckCSR([]int{0, 2, 2, 4}, col, val, 0, 1, 2, 4) },
		"column == rows":        func() { CheckCSR(rowPtr, col, val, 0, rows, 2, 3) },
		"values != columns":     func() { CheckCSR(rowPtr, col, val[:2], 0, rows, 2, 4) },
		"range past rows":       func() { CheckCSR(rowPtr, col, val, 1, rows+1, 2, 4) },
		"short dst":             func() { e.SparseRange(dst[:rows*p-1], &c, src, 0) },
		"rows past the op":      func() { e.SparseRange(dst, &c, src, 1) },
		"short source":          func() { e.SparseRange(dst, &c, src[:4*p-1], 0) },
		"dense weight storage": func() {
			matMulEpilogueRange(New(rows, 4), &Matrix{Rows: 4, Cols: p, Data: src[:4*p-1]}, FromSlice(rows, p, dst), 0, rows, &e)
		},
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
	for j, v := range dst {
		if v != 7 || dst8[j] != 7 {
			t.Fatalf("a refused range wrote dst[%d] = %v, int8 %d", j, v, dst8[j])
		}
	}
	// A hint row's pointers are proved with the range's own, its column
	// indices never: they are hints.
	CheckCSR(rowPtr, []int{0, 3, 1 << 40}, val, 0, 2, 2, 4)
}

// FuzzProductRangeF64 drives the fp64 range entries and the sparse
// range's batches with fuzzed widths, row lengths, inner dimensions and
// operand mixes against the per-row oracle, under
// TestProductRangeF64Differential's guards.
func FuzzProductRangeF64(f *testing.F) {
	f.Add(int64(1), uint8(64), uint16(300), uint16(100), uint8(7), true, false)
	f.Add(int64(2), uint8(3), uint16(6), uint16(129), uint8(1), false, true)
	f.Add(int64(3), uint8(33), uint16(129), uint16(1), uint8(6), true, true)
	f.Add(int64(4), uint8(7), uint16(0), uint16(0), uint8(2), false, false)
	f.Add(int64(5), uint8(16), uint16(1), uint16(300), uint8(5), true, false)
	f.Fuzz(func(t *testing.T, seed int64, width uint8, terms, inner uint16, mix uint8, special, big bool) {
		rng := rand.New(rand.NewSource(seed))
		p, n := 1+int(width)%100, int(inner)%320
		counts := make([]int, 1+rng.Intn(9))
		for i := range counts {
			switch rng.Intn(3) {
			case 0:
				counts[i] = int(terms) % 400
			case 1:
				counts[i] = rng.Intn(7)
			}
		}
		checkSparseRange(t, rng, p, counts, mix&7, special, big)
		checkDenseRange(t, rng, p, n, mix&7, special)
	})
}
