package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveRequantRow is the requantise-row contract written out literally —
// the per-element loop every int8 op ran before there was a kernel, with
// the NaN quotient pinned to code 0 — and independent of QuantizeI8.
// scales nil means scale for every column; it returns the codes and the
// wide argmax.
func naiveRequantRow(n int, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu bool) ([]int8, int) {
	codes := make([]int8, n)
	am, best := 0, math.Inf(-1)
	for j := range codes {
		var f float64
		switch {
		case acc != nil:
			f = float64(acc[j]) * deq[j]
			if bias != nil {
				f = f + bias[j]
			}
		case bias != nil:
			f = bias[j]
		}
		if res != nil {
			r := float64(res[j]) * resScales[j]
			if acc != nil || bias != nil {
				f = f + r
			} else {
				f = r
			}
		}
		if relu && !(f > 0) {
			f = 0
		}
		if f > best {
			best, am = f, j
		}
		s := scale
		if scales != nil {
			s = scales[j]
		}
		if s <= 0 {
			continue
		}
		q := math.Round(f / s)
		switch {
		case math.IsNaN(q):
		case q > 127:
			codes[j] = 127
		case q < -127:
			codes[j] = -127
		default:
			codes[j] = int8(q)
		}
	}
	return codes, am
}

// requantScales are the destination-scale kinds of the differential
// table; the power of two makes exact ±k.5 quotients reachable.
var requantScales = []struct {
	name string
	draw func(*rand.Rand) float64
}{
	{"normal", func(rng *rand.Rand) float64 { return 0.01 + rng.Float64() }},
	{"pow2", func(rng *rand.Rand) float64 { return 0.25 }},
	{"zero", func(rng *rand.Rand) float64 { return 0 }},
	{"negative", func(rng *rand.Rand) float64 { return -0.5 }},
	{"denormal", func(rng *rand.Rand) float64 { return float64(1+rng.Intn(9)) * math.SmallestNonzeroFloat64 }},
	{"huge", func(rng *rand.Rand) float64 { return 1e300 * (1 + rng.Float64()) }},
	{"mixed", nil},
}

// requantValues are its value kinds. Each fills one column's operands so
// that the present terms sum to the kind's f exactly (s is that column's
// destination scale; every term is a small multiple of s/2, and s is a
// power of two wherever exactness matters).
var requantValues = []struct {
	name string
	f    func(rng *rand.Rand, s float64) float64
}{
	{"random", nil},
	{"ties", func(rng *rand.Rand, s float64) float64 { return (float64(rng.Intn(280)-140) + 0.5) * s }},
	{"beyond", func(rng *rand.Rand, s float64) float64 {
		return []float64{127.5, -127.5, 127.49, -127.49, 128, -128, 1e6, -1e6}[rng.Intn(8)] * s
	}},
	{"special", func(rng *rand.Rand, s float64) float64 {
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0.49999999999999994 * s, -0.49999999999999994 * s}[rng.Intn(7)]
	}},
	{"allEqual", func(rng *rand.Rand, s float64) float64 { return 3 * s }},
	{"allNegInf", func(rng *rand.Rand, s float64) float64 { return math.Inf(-1) }},
}

// requantCase is one row of operands; absent terms are nil.
type requantCase struct {
	acc            []int32
	deq, bias      []float64
	res            []int8
	resScales, dst []float64
}

// newRequantCase draws an n-column row with the chosen terms present.
// With a value kind that names f, the terms are built to sum to it: the
// first present term carries f (the accumulator as an odd or even count
// of half-steps where f is finite, the bias as f itself), the others add
// an exact zero — except in the random kind, where every operand is
// free.
func newRequantCase(rng *rand.Rand, n int, hasAcc, hasBias, hasRes bool, scaleKind, valueKind int) requantCase {
	var c requantCase
	c.dst = make([]float64, n)
	for j := range c.dst {
		k := scaleKind
		if requantScales[k].draw == nil {
			k = rng.Intn(len(requantScales) - 1)
		}
		c.dst[j] = requantScales[k].draw(rng)
	}
	if hasAcc {
		c.acc, c.deq = make([]int32, n), make([]float64, n)
	}
	if hasBias {
		c.bias = make([]float64, n)
	}
	if hasRes {
		c.res, c.resScales = make([]int8, n), make([]float64, n)
	}
	kind := requantValues[valueKind]
	for j := 0; j < n; j++ {
		if kind.f == nil {
			if hasAcc {
				c.acc[j], c.deq[j] = int32(rng.Intn(1<<20)-1<<19), rng.NormFloat64()*1e-3
			}
			if hasBias {
				c.bias[j] = rng.NormFloat64() * 40
			}
			if hasRes {
				c.res[j], c.resScales[j] = int8(rng.Intn(256)-128), rng.Float64()
			}
			continue
		}
		f := kind.f(rng, c.dst[j])
		half := c.dst[j] / 2
		steps := f / half // exact where dst is a power of two
		switch {
		case hasAcc && steps == math.Trunc(steps) && math.Abs(steps) < 1<<30 && half != 0:
			c.acc[j], c.deq[j] = int32(steps), half
		case hasAcc && hasBias:
			c.acc[j], c.deq[j], c.bias[j] = 0, 1, f // +0 + f
		case hasAcc:
			c.acc[j], c.deq[j] = 1, f
		case hasBias:
			c.bias[j] = f
		}
		if hasRes {
			if hasAcc || hasBias {
				c.res[j], c.resScales[j] = 0, 1
			} else {
				c.res[j], c.resScales[j] = 1, f
			}
		}
	}
	return c
}

// TestRequantizeRowDifferential holds the dispatched kernel (AVX2 where
// the CPU has it), the portable kernel and the literal contract to the
// same codes and the same wide argmax over widths 1…70 × every mix of
// accumulator, bias, residual and ReLU × destination scales {normal,
// power of two, 0, negative, denormal, huge, mixed} × values {random,
// exact ±k.5 ties, at and beyond ±127.5, ±0/±Inf/NaN, all-equal and
// all-−Inf rows for the argmax tie rule} — and the single-scale form and
// the product kernels' multiplier codes to the same contract.
func TestRequantizeRowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 1; n <= 70; n++ {
		for terms := 1; terms < 8; terms++ {
			hasAcc, hasBias, hasRes := terms&1 != 0, terms&2 != 0, terms&4 != 0
			for sk := range requantScales {
				for vk := range requantValues {
					c := newRequantCase(rng, n, hasAcc, hasBias, hasRes, sk, vk)
					for _, relu := range []bool{false, true} {
						want, wantAm := naiveRequantRow(n, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, 0, relu)
						where := func() string {
							return fmt.Sprintf("n=%d acc=%v bias=%v res=%v relu=%v scales=%s values=%s",
								n, hasAcc, hasBias, hasRes, relu, requantScales[sk].name, requantValues[vk].name)
						}
						got, fenced := fencedRow[int8](n)
						am := RequantizeRow(got, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, relu, true)
						if j := firstDiffI8(got, want); j >= 0 || am != wantAm {
							t.Fatalf("%s: dispatched elem %d, argmax %d; contract %v argmax %d, got %v", where(), j, am, want, wantAm, got)
						}
						if !fenced() {
							t.Fatalf("%s: dispatched kernel wrote outside its row", where())
						}
						port := make([]int8, n)
						am = requantRowGo(port, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, 0, relu, true)
						if j := firstDiffI8(port, want); j >= 0 || am != wantAm {
							t.Fatalf("%s: portable elem %d, argmax %d; contract %v argmax %d, got %v", where(), j, am, want, wantAm, port)
						}
						// Without the argmax the codes are the same and the answer is 0.
						clear(got)
						if am := RequantizeRow(got, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, relu, false); am != 0 || firstDiffI8(got, want) >= 0 || !fenced() {
							t.Fatalf("%s: no-argmax call returned %d, codes %v (fence intact: %v), contract %v", where(), am, got, fenced(), want)
						}
						// In place over the residual row.
						if hasRes {
							inPlace, fenced := fencedRow[int8](n)
							copy(inPlace, c.res)
							RequantizeRow(inPlace, c.acc, c.deq, c.bias, inPlace, c.resScales, c.dst, relu, false)
							if j := firstDiffI8(inPlace, want); j >= 0 || !fenced() {
								t.Fatalf("%s: in-place elem %d (fence intact: %v), got %v, contract %v", where(), j, fenced(), inPlace, want)
							}
						}
					}

					// One scale for the whole row, narrow and wide codes, from
					// a plain float64 source.
					if !hasBias || hasAcc || hasRes {
						continue
					}
					requireSingleScaleForms(t, c.bias, c.dst[rng.Intn(n)], requantValues[vk].name)
				}
			}
		}
	}
}

// fenceWidth is how many canary elements the fenced rows carry on each
// side: more than the widest store either kernel issues (eight codes).
const fenceWidth = 16

// fencedRow returns an n-long row cut out of the middle of a longer
// buffer (capacity clipped, so an append cannot reach the fence either)
// and a check that every element before and after the row still holds
// its canary — what a vector or masked store running past the row would
// overwrite.
func fencedRow[E int8 | int32 | int | float64](n int) ([]E, func() bool) {
	const canary = 0x55
	buf := make([]E, n+2*fenceWidth)
	for i := range buf {
		buf[i] = canary
	}
	return buf[fenceWidth : fenceWidth+n : fenceWidth+n], func() bool {
		for i, v := range buf {
			if (i < fenceWidth || i >= fenceWidth+n) && v != canary {
				return false
			}
		}
		return true
	}
}

// requireSingleScaleForms holds the one-scale forms of a plain float64
// source — the codes of QuantizeI8Into, its row between canaries, and the
// multiplier codes the product kernels quantise CSR values and attention
// coefficients to inside their range call (valueCodesI8) — to the literal
// contract.
func requireSingleScaleForms(t testing.TB, src []float64, scale float64, values string) {
	t.Helper()
	n := len(src)
	want, _ := naiveRequantRow(n, nil, nil, src, nil, nil, nil, scale, false)
	narrow, narrowFenced := fencedRow[int8](n)
	QuantizeI8Into(&MatrixI8{Rows: 1, Cols: n, Data: narrow}, FromSlice(1, n, src), scale)
	mult := valueCodesI8(t, src, scale)
	for j := range want {
		if narrow[j] != want[j] || mult[j] != want[j] {
			t.Fatalf("n=%d scale=%g values=%s: elem %d (%g) = %d as a code, %d as a multiplier, contract %d",
				n, scale, values, j, src[j], narrow[j], mult[j], want[j])
		}
	}
	if !narrowFenced() {
		t.Fatalf("n=%d scale=%g values=%s: single-scale form wrote outside its row", n, scale, values)
	}
}

func firstDiffI8(a, b []int8) int {
	for j := range a {
		if a[j] != b[j] {
			return j
		}
	}
	return -1
}

// TestRequantizeRowRejectsShortOperands: any present operand shorter
// than the row, or no source term at all, panics before a kernel runs.
func TestRequantizeRowRejectsShortOperands(t *testing.T) {
	f5, f4 := make([]float64, 5), make([]float64, 4)
	for name, fn := range map[string]func(){
		"short acc":       func() { RequantizeRow(make([]int8, 5), make([]int32, 4), f5, nil, nil, nil, f5, false, false) },
		"short deq":       func() { RequantizeRow(make([]int8, 5), make([]int32, 5), f4, nil, nil, nil, f5, false, false) },
		"acc without deq": func() { RequantizeRow(make([]int8, 5), make([]int32, 5), nil, nil, nil, nil, f5, false, false) },
		"short bias":      func() { RequantizeRow(make([]int8, 5), nil, nil, f4, nil, nil, f5, false, true) },
		"short res":       func() { RequantizeRow(make([]int8, 5), nil, nil, f5, make([]int8, 4), f5, f5, false, false) },
		"short resScales": func() { RequantizeRow(make([]int8, 5), nil, nil, nil, make([]int8, 5), f4, f5, true, false) },
		"short dstScales": func() { RequantizeRow(make([]int8, 5), nil, nil, f5, nil, nil, f4, false, false) },
		"nil dstScales":   func() { RequantizeRow(make([]int8, 5), nil, nil, f5, nil, nil, nil, false, false) },
		"no source":       func() { RequantizeRow(make([]int8, 5), nil, nil, nil, nil, nil, f5, false, false) },
		"matrix short src": func() {
			QuantizeI8Into(&MatrixI8{Rows: 1, Cols: 5, Data: make([]int8, 5)}, &Matrix{Rows: 1, Cols: 5, Data: f4}, 1)
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
	if am := RequantizeRow(nil, nil, nil, nil, nil, nil, nil, true, true); am != 0 {
		t.Errorf("empty row answered %d", am)
	}
}

// FuzzRequantizeRow drives the dispatched requantise row with fuzzed
// widths, term mixes, scale and value kinds, with and without the wide
// argmax, against the literal contract; rows sit between canaries, and a
// plain float64 source also goes through the single-scale form and the
// product kernels' multiplier quantisation.
func FuzzRequantizeRow(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(7), uint8(0), uint8(0), true, true)
	f.Add(int64(2), uint8(3), uint8(1), uint8(1), uint8(1), false, true)
	f.Add(int64(3), uint8(33), uint8(2), uint8(6), uint8(3), true, false)
	f.Add(int64(4), uint8(5), uint8(4), uint8(4), uint8(2), false, false)
	f.Add(int64(5), uint8(11), uint8(1), uint8(5), uint8(1), false, true)
	f.Fuzz(func(t *testing.T, seed int64, width, terms, scaleKind, valueKind uint8, relu, argmax bool) {
		rng := rand.New(rand.NewSource(seed))
		n, mix := 1+int(width)%96, 1+int(terms)%7
		sk, vk := int(scaleKind)%len(requantScales), int(valueKind)%len(requantValues)
		c := newRequantCase(rng, n, mix&1 != 0, mix&2 != 0, mix&4 != 0, sk, vk)
		want, wantAm := naiveRequantRow(n, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, 0, relu)
		if !argmax {
			wantAm = 0
		}
		got, fenced := fencedRow[int8](n)
		am := RequantizeRow(got, c.acc, c.deq, c.bias, c.res, c.resScales, c.dst, relu, argmax)
		if j := firstDiffI8(got, want); j >= 0 || am != wantAm || !fenced() {
			t.Fatalf("n=%d terms=%d relu=%v argmax=%v scales=%s values=%s: elem %d, argmax %d, fence intact %v; contract %v argmax %d, got %v",
				n, mix, relu, argmax, requantScales[sk].name, requantValues[vk].name, j, am, fenced(), want, wantAm, got)
		}
		if mix == 2 { // a plain float64 source
			requireSingleScaleForms(t, c.bias, c.dst[rng.Intn(n)], requantValues[vk].name)
		}
	})
}
