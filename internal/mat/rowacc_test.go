package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naiveRowAcc is the row-accumulate contract written out literally: per
// element, the first term a bare product (unless continuing), then one
// rounded multiply and one rounded add per term, in term order.
func naiveRowAcc(out, alpha []float64, idx []int, src []float64, cont bool) {
	p := len(out)
	for j := range out {
		var s float64
		if cont {
			s = out[j]
		}
		for t, a := range alpha {
			prod := a * src[idx[t]*p+j]
			if t == 0 && !cont {
				s = prod
			} else {
				s = s + prod
			}
		}
		out[j] = s
	}
}

func naiveRowAccI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	p := len(out)
	for j := range out {
		var s int32
		if cont {
			s = out[j]
		}
		for t, a := range alpha {
			s += a * int32(src[idx[t]*p+j])
		}
		out[j] = s
	}
}

// rowAccF64 is the fp64 row contract as the tests drive it: a one-row
// sparse range with no epilogue (CheckCSR, then CheckedEpilogue.SparseRange
// — their validation, then the dispatched kernel) over a source of
// srcRows rows, its look-ahead hints ahead — when there are any — the
// column indices of the CSR's third row, two on.
func rowAccF64(out, alpha []float64, idx []int, srcRows int, src []float64, ahead []int) {
	rowPtr, col, val := []int{0, len(idx)}, idx, alpha
	if ahead != nil {
		rowPtr = append(rowPtr, len(idx), len(idx)+len(ahead))
		col = append(append([]int(nil), idx...), ahead...)
		val = append(append([]float64(nil), alpha...), make([]float64, len(ahead))...)
	}
	c := CheckCSR(rowPtr, col, val, 0, 1, 2, srcRows)
	e := CheckEpilogue(1, len(out), nil, nil, false)
	e.SparseRange(out, &c, src, 0)
}

// rowAccI8 is the int8 row contract's dispatched form: a one-row sparse
// range of the codes vals under value scale 1, requantised under e.
func rowAccI8(e *CheckedEpilogueI8, dst []int8, acc []int32, vals []float64, idx []int, srcRows int, src []int8) {
	c := CheckCSR([]int{0, len(idx)}, idx, vals, 0, 1, 0, srcRows)
	e.SparseRange(dst, &c, 1, src, nil, acc, nil)
}

// requireSumsI8 holds the int32 sums an int8 product leaves its
// requantise to want, exactly, through codes alone: under unit scales and
// the bias δ[j] − want[j], δ[j] = j mod 5 − 2, column j's code is δ[j]
// when its sum is want[j] and something else when it is not (every step
// is exact below 2⁵³, and a clamp never lands a non-zero difference on
// δ). product runs the row under those operands into dst.
func requireSumsI8(t testing.TB, what string, want []int32, product func(e *CheckedEpilogueI8, dst []int8)) {
	t.Helper()
	p := len(want)
	ones, bias := make([]float64, p), make([]float64, p)
	for j := range ones {
		ones[j], bias[j] = 1, float64(j%5-2)-float64(want[j])
	}
	e := CheckEpilogueI8(p, ones, bias, nil, ones, false, false)
	dst, fenced := fencedRow[int8](p)
	product(&e, dst)
	for j, q := range dst {
		if int(q) != j%5-2 {
			t.Fatalf("%s: elem %d sums to contract %d %+d", what, j, want[j], int(q)-(j%5-2))
		}
	}
	if !fenced() {
		t.Fatalf("%s: wrote outside its row", what)
	}
}

var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64,
}

// zeroPatterns are the multiplier zero layouts of the differential table.
var zeroPatterns = []struct {
	name string
	zero func(t, n int) bool
}{
	{"none", func(t, n int) bool { return false }},
	{"all", func(t, n int) bool { return true }},
	{"alternating", func(t, n int) bool { return t%2 == 1 }},
	{"firstLastOnly", func(t, n int) bool { return t != 0 && t != n-1 }},
}

// rowAccCase builds one differential input: terms multipliers under a zero
// pattern over a rows×p source, special values sprinkled in when asked.
func rowAccCase(rng *rand.Rand, p, terms int, zero func(t, n int) bool, special bool) (alpha []float64, idx []int, src []float64) {
	rows := 1 + rng.Intn(9)
	src = make([]float64, rows*p)
	for i := range src {
		src[i] = rng.NormFloat64()
		if special && rng.Intn(6) == 0 {
			src[i] = specials[rng.Intn(len(specials))]
		}
	}
	alpha = make([]float64, terms)
	idx = make([]int, terms)
	for t := range alpha {
		idx[t] = rng.Intn(rows)
		switch {
		case zero(t, terms):
			alpha[t] = 0
		case special && rng.Intn(6) == 0:
			alpha[t] = specials[1+rng.Intn(len(specials)-1)]
		default:
			alpha[t] = rng.NormFloat64()
		}
	}
	return alpha, idx, src
}

// hintedSrc is a source large enough (over 1 MiB) that the assembly acts
// on look-ahead hints instead of dropping them, shared by the tests that
// need the hint loop itself to run.
var hintedSrc = sync.OnceValue(func() []float64 {
	rng := rand.New(rand.NewSource(15))
	src := make([]float64, 1<<17+1<<12)
	for i := range src {
		src[i] = rng.NormFloat64()
		if rng.Intn(64) == 0 {
			src[i] = specials[rng.Intn(len(specials))]
		}
	}
	return src
})

// lookAheads returns the look-ahead rows a row of terms indices over a
// rows-row source is tried with: absent, empty, shorter and longer than
// the row, and — hints being unvalidated by contract — indices no source
// has, the extremes included.
func lookAheads(rng *rand.Rand, terms, rows int) [][]int {
	inRange := func(n int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(rows)
		}
		return a
	}
	wild := inRange(terms + 2)
	for i, bad := range []int{-1, rows, math.MinInt, math.MaxInt, 1 << 40, -rows - 7} {
		if i < len(wild) {
			wild[rng.Intn(len(wild))] = bad
		}
	}
	return [][]int{nil, {}, inRange(terms / 2), inRange(2*terms + 3), wild}
}

// sameBits returns the first index at which a and b differ in their
// bits, or -1. Two NaNs count as the same whatever their payloads: which
// payload survives when two NaNs meet depends on the order the operands
// reach the instruction, which Go leaves to the compiler — gc orders them
// differently in the default and the -race build of the portable kernel
// itself — so no kernel can pin it.
func sameBits(a, b []float64) int {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) && !(a[j] != a[j] && b[j] != b[j]) {
			return j
		}
	}
	return -1
}

// termCounts crosses the compaction chunk boundary (128) and its double.
var termCounts = []int{0, 1, 2, 3, 4, 5, 8, 17, 64, 127, 128, 129, 200, 255, 256, 257, 300}

// TestRowAccumulateDifferential holds the dispatched kernel (AVX2 where
// the CPU has it, as a one-row sparse range), the portable kernel and the
// literal contract to the same bits over widths 1…70 × term counts 0…300
// × zero patterns × special values, under every look-ahead row (none of
// which may change a bit); the portable kernel also continued onto a
// previous sum, as the dense windows use it — and the dense row kernel,
// whose compaction drops the zero multipliers, to the contract applied to
// the survivors.
func TestRowAccumulateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for p := 1; p <= 70; p++ {
		for _, terms := range termCounts {
			for _, zp := range zeroPatterns {
				for _, special := range []bool{false, true} {
					alpha, idx, src := rowAccCase(rng, p, terms, zp.zero, special)
					aheads := lookAheads(rng, terms, len(src)/p)
					for _, cont := range []bool{false, true} {
						want := make([]float64, p)
						for j := range want {
							want[j] = rng.NormFloat64()
						}
						start := append([]float64(nil), want...)
						port := append([]float64(nil), want...)
						naiveRowAcc(want, alpha, idx, src, cont)
						for a, ahead := range aheads {
							if cont {
								break // the range starts every row fresh
							}
							got := append([]float64(nil), start...)
							rowAccF64(got, alpha, idx, len(src)/p, src, ahead)
							if j := sameBits(got, want); j >= 0 {
								t.Fatalf("p=%d terms=%d zeros=%s special=%v ahead=%d: elem %d = %x, contract %x",
									p, terms, zp.name, special, a, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
							}
						}
						if terms == 0 {
							continue // the bare kernels take at least one term
						}
						rowAccF64Go(port, alpha, idx, src, cont)
						if j := sameBits(port, want); j >= 0 {
							t.Fatalf("p=%d terms=%d zeros=%s special=%v cont=%v: portable elem %d = %x, contract %x",
								p, terms, zp.name, special, cont, j, math.Float64bits(port[j]), math.Float64bits(want[j]))
						}
					}

					// The dense product of the 1×terms row alpha with a
					// terms×p matrix: zeros compacted away, chunk by chunk.
					b := New(terms, p)
					for i := range b.Data {
						b.Data[i] = src[rng.Intn(len(src))]
					}
					var ka []float64
					var ki []int
					for k, a := range alpha {
						if a != 0 {
							ka, ki = append(ka, a), append(ki, k)
						}
					}
					want := make([]float64, p)
					naiveRowAcc(want, ka, ki, b.Data, false)
					got := make([]float64, p)
					got[0] = 7 // the dense range must overwrite, never read
					matMulEpilogueRange(FromSlice(1, terms, alpha), b, FromSlice(1, p, got), 0, 1, &CheckedEpilogue{rows: 1, cols: p})
					if j := sameBits(got, want); j >= 0 {
						t.Fatalf("dense range p=%d n=%d zeros=%s special=%v: elem %d = %x, contract %x",
							p, terms, zp.name, special, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestRowAccumulateLookAhead runs the look-ahead rows over a source big
// enough that the assembly issues its hints: rows of every width up to
// two cache lines past the hinted prefix, including ones that straddle
// lines, hinted at rows that exist, rows that do not and addresses that
// are not even mapped — nothing faults, and out is the contract's to the
// bit whatever was hinted.
func TestRowAccumulateLookAhead(t *testing.T) {
	src := hintedSrc()
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{1, 3, 7, 8, 9, 16, 31, 32, 33, 64, 65, 70, 96, 128, 200} {
		rows := len(src) / p
		for _, terms := range []int{0, 1, 5, 40} {
			alpha := make([]float64, terms)
			idx := make([]int, terms)
			for k := range alpha {
				alpha[k], idx[k] = rng.NormFloat64(), rng.Intn(rows)
			}
			// The last rows of the source too: a hint may name the
			// final row, whose lines end the allocation.
			for k := range idx {
				if k%3 == 0 {
					idx[k] = rows - 1 - k%2
				}
			}
			want := make([]float64, p)
			for j := range want {
				want[j] = rng.NormFloat64()
			}
			start := append([]float64(nil), want...)
			naiveRowAcc(want, alpha, idx, src, false)
			aheads := append(lookAheads(rng, terms, rows), []int{rows - 1, 0, rows - 1})
			for a, ahead := range aheads {
				got := append([]float64(nil), start...)
				rowAccF64(got, alpha, idx, rows, src, ahead)
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("p=%d terms=%d ahead=%d: elem %d = %x, contract %x",
						p, terms, a, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestRowAccumulateI8Differential is the int8 table: the portable and
// literal kernels agree exactly, fresh and continued — including
// multipliers large enough to wrap int32 — and so do the sums the
// dispatched kernel requantises, through a one-row sparse range (driven
// with the table's code multipliers as values under scale 1) and through
// the dense product, whose compaction drops the zero codes a RowChunk
// window at a time and changes nothing.
func TestRowAccumulateI8Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for p := 1; p <= 70; p++ {
		for _, terms := range termCounts {
			for _, zp := range zeroPatterns {
				rows := 1 + rng.Intn(9)
				src := make([]int8, rows*p)
				for i := range src {
					src[i] = int8(rng.Intn(256) - 128)
				}
				alpha, wide := make([]int32, terms), make([]int32, terms)
				codes := make([]int8, terms)
				vals := make([]float64, terms)
				idx := make([]int, terms)
				for k := range alpha {
					idx[k] = rng.Intn(rows)
					if !zp.zero(k, terms) {
						codes[k] = int8(rng.Intn(255) - 127)
						alpha[k], wide[k], vals[k] = int32(codes[k]), int32(codes[k]), float64(codes[k])
						if rng.Intn(8) == 0 {
							alpha[k] = rng.Int31() - 1<<30
						}
					}
				}
				for _, cont := range []bool{false, true} {
					start := make([]int32, p)
					for j := range start {
						start[j] = rng.Int31()
					}
					want := append([]int32(nil), start...)
					port := append([]int32(nil), start...)
					naiveRowAccI8(want, alpha, idx, src, cont)
					if terms > 0 {
						rowAccI8Go(port, alpha, idx, src, cont)
					} else {
						copy(port, want) // the bare kernels take at least one term
					}
					for j := range want {
						if port[j] != want[j] {
							t.Fatalf("p=%d terms=%d zeros=%s cont=%v: portable elem %d = %d, contract %d",
								p, terms, zp.name, cont, j, port[j], want[j])
						}
					}
					if cont {
						continue // the range starts every row fresh
					}
					copy(want, start)
					naiveRowAccI8(want, wide, idx, src, false)
					requireSumsI8(t, fmt.Sprintf("sparse range p=%d terms=%d zeros=%s", p, terms, zp.name), want, func(e *CheckedEpilogueI8, dst []int8) {
						rowAccI8(e, dst, append([]int32(nil), start...), vals, idx, rows, src)
					})
				}

				w := NewI8(terms, p)
				for i := range w.Data {
					w.Data[i] = int8(rng.Intn(256) - 128)
				}
				all := make([]int, terms)
				for k := range all {
					all[k] = k
				}
				want := make([]int32, p)
				naiveRowAccI8(want, wide, all, w.Data, false)
				requireSumsI8(t, fmt.Sprintf("dense product p=%d n=%d zeros=%s", p, terms, zp.name), want, func(e *CheckedEpilogueI8, dst []int8) {
					acc := make([]int32, p)
					acc[0] = 7 // the dense range must overwrite, never read
					MatMulI8EpilogueInto(&MatrixI8{Rows: 1, Cols: p, Data: dst}, &MatrixI8{Rows: 1, Cols: terms, Data: codes}, w, e.deq, e.bias, nil, nil, false, e.dstScales, acc, nil)
				})
			}
		}
	}
}

// TestRowAccumulateRejectsBadOperands: an index outside the source
// panics where the indices are checked (CheckCSR), a source shorter than
// the rows they were checked against panics at either range entry before
// any kernel runs, a batch that does not fit its proof panics where it is
// cut — and the portable kernel, called bare, still refuses to read out
// of bounds.
func TestRowAccumulateRejectsBadOperands(t *testing.T) {
	src := make([]float64, 5*4)
	src8 := make([]int8, 5*4)
	e8 := CheckEpilogueI8(4, make([]float64, 4), nil, nil, make([]float64, 4), false, false)
	span := CheckCSR([]int{0, 1, 3, 3}, []int{0, 1, 4}, []float64{1, 1, 1}, 0, 3, 2, 5)
	var ptr [6]int
	for name, fn := range map[string]func(){
		"index == rows":   func() { CheckCSR([]int{0, 2}, []int{0, 5}, []float64{1, 1}, 0, 1, 0, 5) },
		"negative index":  func() { CheckCSR([]int{0, 1}, []int{-1}, []float64{1}, 0, 1, 0, 5) },
		"negative height": func() { CheckCSR([]int{0, 0}, nil, nil, 0, 1, 0, -1) },
		"f64 ragged last row": func() {
			rowAccF64(make([]float64, 4), []float64{1}, []int{4}, 5, src[:19], nil)
		},
		"i8 short source": func() {
			rowAccI8(&e8, make([]int8, 4), make([]int32, 4), []float64{1, 1}, []int{0, 4}, 5, src8[:16])
		},
		"batch past the span":    func() { span.Batch(ptr[:], 2, 4, nil) },
		"batch values":           func() { span.Batch(ptr[:], 1, 2, []float64{1}) },
		"batch row pointers":     func() { span.Batch(ptr[:2], 0, 2, []float64{1, 1, 1}) },
		"portable f64 unchecked": func() { rowAccF64Go(make([]float64, 4), []float64{1}, []int{5}, src, false) },
		"portable i8 unchecked":  func() { rowAccI8Go(make([]int32, 4), []int32{1}, []int{5}, src8, false) },
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
	// A row of no terms pairs with no source at all and clears the row.
	out := []float64{1, 2}
	rowAccF64(out, nil, nil, 0, nil, nil)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("a row of no terms left %v", out)
	}
}

// FuzzRowAccumulate drives both element types of the row accumulate —
// as one-row sparse ranges, the fp64 one with no epilogue, the int8 one
// under requireSumsI8's exact operands — with fuzzed shapes, term counts
// and value mixes against the literal contract; the fp64 row also carries
// a fuzzed look-ahead row — its length and how wild its indices are —
// over the shared source large enough for the assembly to act on it. With
// cont the portable kernels are also held to the contract continued onto
// a previous sum, as the dense windows use them.
func FuzzRowAccumulate(f *testing.F) {
	f.Add(int64(1), uint8(64), uint16(100), uint8(0), true, false, uint16(0))
	f.Add(int64(2), uint8(7), uint16(0), uint8(1), false, true, uint16(9))
	f.Add(int64(3), uint8(3), uint16(300), uint8(2), true, true, uint16(700))
	f.Add(int64(4), uint8(33), uint16(129), uint8(3), false, false, uint16(0x8005))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, terms uint16, pattern uint8, special, cont bool, hints uint16) {
		rng := rand.New(rand.NewSource(seed))
		p, n := 1+int(width)%96, int(terms)%400
		zero := zeroPatterns[int(pattern)%len(zeroPatterns)].zero
		alpha, idx, _ := rowAccCase(rng, p, n, zero, special)
		src := hintedSrc()
		rows := len(src) / p
		for k := range idx {
			idx[k] = rng.Intn(rows)
		}
		// hints: the low bits are the look-ahead row's length, the top
		// bit lets its indices be anything at all.
		ahead := make([]int, int(hints&0x7fff)%600)
		for k := range ahead {
			ahead[k] = rng.Intn(rows)
			if hints&0x8000 != 0 && rng.Intn(3) == 0 {
				ahead[k] = int(rng.Uint64())
			}
		}
		start := make([]float64, p)
		for j := range start {
			start[j] = rng.NormFloat64()
		}
		want := append([]float64(nil), start...)
		naiveRowAcc(want, alpha, idx, src, false)
		got := append([]float64(nil), start...)
		rowAccF64(got, alpha, idx, rows, src, ahead)
		if j := sameBits(got, want); j >= 0 {
			t.Fatalf("fp64 p=%d terms=%d hints=%d: elem %d = %x, contract %x", p, n, len(ahead), j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
		if cont && n > 0 {
			want, got = append(want[:0], start...), append(got[:0], start...)
			naiveRowAcc(want, alpha, idx, src, true)
			rowAccF64Go(got, alpha, idx, src, true)
			if j := sameBits(got, want); j >= 0 {
				t.Fatalf("portable fp64 p=%d terms=%d continued: elem %d = %x, contract %x", p, n, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}

		src8 := make([]int8, 9*p)
		for i := range src8 {
			src8[i] = int8(rng.Intn(256) - 128)
		}
		alpha32, vals := make([]int32, n), make([]float64, n)
		for k := range alpha32 {
			idx[k] = rng.Intn(9)
			if !zero(k, n) {
				alpha32[k] = int32(rng.Intn(255) - 127)
				vals[k] = float64(alpha32[k])
			}
		}
		start32 := make([]int32, p)
		for j := range start32 {
			start32[j] = rng.Int31()
		}
		want32 := make([]int32, p)
		naiveRowAccI8(want32, alpha32, idx, src8, false)
		requireSumsI8(t, fmt.Sprintf("int8 p=%d terms=%d", p, n), want32, func(e *CheckedEpilogueI8, dst []int8) {
			rowAccI8(e, dst, append([]int32(nil), start32...), vals, idx, 9, src8)
		})
		if cont && n > 0 {
			want32 = append(want32[:0], start32...)
			naiveRowAccI8(want32, alpha32, idx, src8, true)
			rowAccI8Go(start32, alpha32, idx, src8, true)
			for j := range want32 {
				if start32[j] != want32[j] {
					t.Fatalf("portable int8 p=%d terms=%d continued: elem %d = %d, contract %d", p, n, j, start32[j], want32[j])
				}
			}
		}
	})
}

// TestDenseProductRejectsShortSourceBeforeWriting: the dense products
// mint their compaction's indices checked against the input row's length,
// which is only right while that length is the weight's height — the
// shape check every driver makes before its first row. An input narrower
// (or wider) than its weight therefore panics at fp64 and at int8 with
// the destination untouched, and so does a weight whose backing array is
// shorter than its shape says, which the drivers refuse before their
// first row — and an epilogue operand that does not fit the product: a
// bias or residual at fp64 (CheckEpilogue), any of the four at int8 —
// and, at int8, an input, destination or residual whose storage is
// shorter than its shape, or labels short of the rows.
func TestDenseProductRejectsShortSourceBeforeWriting(t *testing.T) {
	const rows, inner, p = 5, 12, 6
	rng := rand.New(rand.NewSource(15))
	ones := make([]float64, p)
	for j := range ones {
		ones[j] = 1
	}
	for _, aCols := range []int{inner - 1, inner + 1, inner} {
		a, a8 := New(rows, aCols), NewI8(rows, aCols)
		for i := range a.Data {
			a.Data[i], a8.Data[i] = 1+rng.Float64(), int8(1+rng.Intn(100))
		}
		w, w8 := New(inner, p), NewI8(inner, p)
		if aCols == inner {
			// Shapes agree; the weights' storage does not reach them.
			w.Data, w8.Data = w.Data[:len(w.Data)-1], w8.Data[:len(w8.Data)-1]
		}
		dst, dst8 := New(rows, p), NewI8(rows, p)
		for i := range dst.Data {
			dst.Data[i], dst8.Data[i] = 7, 7
		}
		for name, fn := range map[string]func(){
			"fp64": func() { MatMulBiasReLUInto(dst, a, w, nil, nil, false, 1) },
			"int8": func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, nil, nil, false, ones, make([]int32, p), nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s product of a %d-wide input with a %d-high weight: no panic", name, aCols, inner)
					}
				}()
				fn()
			}()
		}
		for i := range dst.Data {
			if dst.Data[i] != 7 || dst8.Data[i] != 7 {
				t.Fatalf("input %d wide: element %d written before the panic (fp64 %v, int8 %d)", aCols, i, dst.Data[i], dst8.Data[i])
			}
		}
	}

	// The fp64 epilogue operands are proved once, before the first row
	// (CheckEpilogue): a bias or residual that does not fit panics with the
	// destination untouched, serial or banded.
	a, w, dst := New(rows, inner), New(inner, p), New(rows, p)
	for i := range dst.Data {
		dst.Data[i] = 7
	}
	cutRes := New(rows, p)
	cutRes.Data = cutRes.Data[:rows*p-1]
	for name, fn := range map[string]func(){
		"bias":             func() { MatMulBiasReLUInto(dst, a, w, ones[:p-1], nil, true, 1) },
		"long bias":        func() { MatMulBiasReLUInto(dst, a, w, append(ones, 1), nil, false, 2) },
		"residual rows":    func() { MatMulBiasReLUInto(dst, a, w, nil, New(rows+1, p), false, 1) },
		"residual cols":    func() { MatMulBiasReLUInto(dst, a, w, ones, New(rows, p-1), true, 2) },
		"residual storage": func() { MatMulBiasReLUInto(dst, a, w, nil, cutRes, false, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fp64 product with mis-shaped %s: no panic", name)
				}
			}()
			fn()
		}()
	}
	for i, v := range dst.Data {
		if v != 7 {
			t.Fatalf("mis-shaped fp64 epilogue operand: element %d written before the panic", i)
		}
	}

	// The int8 epilogue operands are proved once too (CheckEpilogueI8): a
	// short one panics with the destination untouched.
	a8, w8, res8 := NewI8(rows, inner), NewI8(inner, p), NewI8(rows, p)
	for i := range a8.Data {
		a8.Data[i] = int8(1 + rng.Intn(100))
	}
	dst8 := NewI8(rows, p)
	for i := range dst8.Data {
		dst8.Data[i] = 7
	}
	short, acc := ones[:p-1], make([]int32, p)
	for name, fn := range map[string]func(){
		"deq":       func() { MatMulI8EpilogueInto(dst8, a8, w8, short, nil, nil, nil, false, ones, acc, nil) },
		"bias":      func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, short, nil, nil, true, ones, acc, nil) },
		"resScales": func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, res8, short, false, ones, acc, nil) },
		"dstScales": func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, nil, nil, false, short, acc, make([]int, rows)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("int8 product with short %s: no panic", name)
				}
			}()
			fn()
		}()
	}
	for i, q := range dst8.Data {
		if q != 7 {
			t.Fatalf("short epilogue operand: element %d written before the panic", i)
		}
	}

	// And so is the storage the range reads and writes unchecked: an
	// input, a destination or a residual whose backing array is shorter
	// than its shape says, and labels short of the rows, panic with the
	// destination untouched — where Go's slicing used to stop such a
	// product only at the row that crossed the end, the rows before it
	// already written.
	cut := func(m *MatrixI8) *MatrixI8 {
		return &MatrixI8{Rows: m.Rows, Cols: m.Cols, Data: m.Data[:len(m.Data)-1]}
	}
	for name, fn := range map[string]func(){
		"input":       func() { MatMulI8EpilogueInto(dst8, cut(a8), w8, ones, nil, nil, nil, false, ones, acc, nil) },
		"destination": func() { MatMulI8EpilogueInto(cut(dst8), a8, w8, ones, nil, nil, nil, false, ones, acc, nil) },
		"residual":    func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, cut(res8), ones, false, ones, acc, nil) },
		"labels":      func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, nil, nil, false, ones, acc, make([]int, rows-1)) },
		"accumulator": func() { MatMulI8EpilogueInto(dst8, a8, w8, ones, nil, nil, nil, false, ones, acc[:p-1], nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("int8 product with short %s storage: no panic", name)
				}
			}()
			fn()
		}()
	}
	for i, q := range dst8.Data {
		if q != 7 {
			t.Fatalf("short operand storage: element %d written before the panic", i)
		}
	}
}
