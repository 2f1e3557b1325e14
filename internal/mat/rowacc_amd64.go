//go:build !purego

package mat

import "unsafe"

// useAVX2 selects the assembly row-accumulate and requantise-row
// kernels. It is decided once, here, from what the CPU and the OS
// report; the portable kernels run otherwise.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the assembly kernels may be executed: the
// CPU has POPCNT, AVX and AVX2, and the OS saves the YMM state (OSXSAVE
// set, XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// packLUT[mask] holds the VPERMD indices that move the quadword lanes
// set in mask to the front, in order (what follows them is never kept);
// the compaction kernels read it.
var packLUT = func() (lut [16][8]uint32) {
	for mask := range lut {
		n := 0
		for lane := uint32(0); lane < 4; lane++ {
			if mask>>lane&1 == 1 {
				lut[mask][2*n], lut[mask][2*n+1] = 2*lane, 2*lane+1
				n++
			}
		}
	}
	return lut
}()

//go:noescape
func compactI8AVX2(ab *int32, ib *int, src *int8, n, base int) int

//go:noescape
func productRangeF64AVX2(a *rangeF64)

//go:noescape
func rowAccI8AVX2(out *int32, p int, alpha *int32, idx *int, n int, src *int8, cont bool)

//go:noescape
func productRowI8AVX2(e *CheckedEpilogueI8, dst *int8, acc, alpha *int32, idx *int, n int, src, last, res *int8, cont bool) int

//go:noescape
func requantRowAVX2(dst8 *int8, dst32 *int32, n int, acc *int32, deq, bias *float64, res *int8, resScales, scales *float64, scale float64, relu, argmax bool) int

// The look-ahead clause of the row accumulate (axpy.go) is acted on only
// here, and only where the operands say a gather can be hidden. Measured
// on the build host (Xeon Sapphire Rapids VM, 2 MB L2, GOMAXPROCS 1; ns
// per non-zero of graph.BenchmarkSpMMGather, hints off → on, medians of
// 21 interleaved rounds):
//
//   - a source row under one cache line shares its line with its
//     neighbours and the hints only add instructions (the 3-wide logits
//     products got slower in the prototype this came from), so such rows
//     were never hinted;
//   - a source the L2 holds gains nothing and pays for the hint loop:
//     600×16 4.9 → 5.5, 600×64 15.4 → 18.3, 2000×32 12.6 → 13.8, while
//     2000×64 (1 MB) breaks even at 20.6 → 20.2 and 5000×32 (1.3 MB)
//     gains, 16.5 → 13.7 — hence aheadMinSource;
//   - hinting a whole long row floods the fill buffers the row being
//     summed needs: 20000×128 66 → 75 and 20000×256 127 → 163 with every
//     line hinted, 66 → 65 and 127 → 129 with the first eight, the
//     hardware streamer fetching the rest; 64-wide rows (eight lines)
//     want all eight, 5.9 → 4.6 ms on the bench's 64-wide product against
//     5.0 with four — hence aheadRowBytes.
const (
	aheadMinSource = 1 << 20 / 8 // float64s: sources under 1 MiB are not hinted
	aheadRowBytes  = 512         // leading bytes hinted per source row (rowacc_amd64.s)
)

// rangeF64 is the argument block of productRangeF64AVX2 (rowacc_amd64.s
// reads it by the offsets go_asm.h exports): rows output rows of p
// columns from dst on, contiguous, each the row contract over src
// finished by the epilogue flags names — bias p long, res the residual
// row of the first output row, the rest following it. A sparse call walks
// rowPtr: row i's multipliers and indices are val and col from position
// rowPtr[i] to rowPtr[i+1], and its look-ahead hints are hint from
// position rowPtr[i+ahead] to rowPtr[i+ahead+1] (aheadOff is ahead in
// bytes) unless it is one of the last unhinted rows. A dense call
// (rangeDense) walks the n-wide input rows from a on, compacting each
// into ab and ib, RowChunk entries long. rows, k and state are the
// routine's own cursors.
type rangeF64 struct {
	dst       *float64
	p         int
	src       *float64
	bias, res *float64
	flags     uint64
	rows      int

	rowPtr   *int
	val      *float64
	col      *int
	hint     *int
	aheadOff int
	unhinted int

	a     *float64
	n     int
	ab    *float64
	ib    *int
	k     int
	state uint64
}

// The flags of a rangeF64. The first four are the caller's (rangeCont
// only from the row door); rangeDense selects the dense walk and
// rangeLast is the routine's own mark on a dense row's last window.
const (
	rangeCont = 1 << iota
	rangeBias
	rangeRes
	rangeReLU
	rangeDense
	rangeLast
)

// epilogue fills in the argument block's epilogue operands: e's bias and
// ReLU, and its residual from row r0 on.
func (a *rangeF64) epilogue(e *CheckedEpilogue, r0 int) {
	if e.bias != nil {
		a.bias, a.flags = &e.bias[0], a.flags|rangeBias
	}
	if e.res != nil {
		a.res, a.flags = &e.res[r0*e.cols], a.flags|rangeRes
	}
	if e.relu {
		a.flags |= rangeReLU
	}
}

// actsOnHints reports whether look-ahead hints are acted on for p-wide rows
// gathered from src — the rule above, decided once per call.
func actsOnHints(p int, src []float64) bool {
	return p >= 8 && len(src) >= aheadMinSource
}

// productRowF64 runs one validated fp64 row of at least one column — the
// row contract, then e's epilogue with residual row r — on the
// implementation chosen at init. The assembly's row door is its range
// routine handed a one-row CSR: the row's terms at positions [0, n), its
// hints at positions [0, len(ahead)) of their own list.
func productRowF64(e *CheckedEpilogue, out, alpha []float64, idx []int, src []float64, r int, cont bool, ahead []int) {
	if !useAVX2 {
		productRowF64Go(e, out, alpha, idx, src, r, cont)
		return
	}
	rowPtr := [4]int{0, len(alpha), 0, len(ahead)}
	var a rangeF64 // filled field by field: a composite literal is built aside and copied in, per row
	a.dst, a.p, a.src, a.rows = &out[0], len(out), unsafe.SliceData(src), 1
	a.rowPtr, a.val, a.col = &rowPtr[0], unsafe.SliceData(alpha), unsafe.SliceData(idx)
	a.hint, a.aheadOff, a.unhinted = unsafe.SliceData(ahead), 2*8, 1
	if actsOnHints(len(out), src) {
		a.unhinted = 0
	}
	if cont {
		a.flags = rangeCont
	}
	a.epilogue(e, r)
	productRangeF64AVX2(&a)
}

// sparseRangeF64 runs the validated rows of c, at least one of at least
// one column, on the implementation chosen at init.
func sparseRangeF64(e *CheckedEpilogue, dst []float64, c *CheckedCSR, src []float64, r0 int) {
	if !useAVX2 {
		sparseRangeF64Go(e, dst, c, src, r0)
		return
	}
	a := rangeF64{
		dst: &dst[0], p: e.cols, src: unsafe.SliceData(src), rows: c.rows,
		rowPtr: &c.rowPtr[0], val: unsafe.SliceData(c.val), col: unsafe.SliceData(c.col),
		hint: unsafe.SliceData(c.col), aheadOff: c.ahead * 8, unhinted: c.rows,
	}
	if actsOnHints(e.cols, src) {
		a.unhinted = c.rows - c.hinted
	}
	a.epilogue(e, r0)
	productRangeF64AVX2(&a)
}

// denseRangeF64 is sparseRangeF64 for the dense product: rows input rows
// of n entries from a on, times the n×e.cols matrix b.
func denseRangeF64(e *CheckedEpilogue, dst, a []float64, n int, b []float64, rows, r0 int) {
	if !useAVX2 {
		denseRangeF64Go(e, dst, a, n, b, rows, r0)
		return
	}
	var ab [RowChunk]float64
	var ib [RowChunk]int
	args := rangeF64{
		dst: &dst[0], p: e.cols, src: unsafe.SliceData(b), flags: rangeDense, rows: rows,
		a: unsafe.SliceData(a), n: n, ab: &ab[0], ib: &ib[0],
	}
	args.epilogue(e, r0)
	productRangeF64AVX2(&args)
}

// rowAccI8 runs one validated, non-empty int8 row accumulate on the
// implementation chosen at init. The assembly covers the
// leading multiple of eight columns; the last few are summed here, which
// exact integer arithmetic makes the same result in any order.
func rowAccI8(out, alpha []int32, idx []int, src []int8, cont bool) {
	if !useAVX2 {
		rowAccI8Go(out, alpha, idx, src, cont)
		return
	}
	p := len(out)
	if p >= 8 {
		rowAccI8AVX2(&out[0], p, &alpha[0], &idx[0], len(alpha), &src[0], cont)
	}
	for j := p &^ 7; j < p; j++ {
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

// compactNonZeroI8 picks the int8 dense product's compaction the same
// way. The assembly writes up to len(chunk) entries unchecked, so a chunk
// longer than the buffers is refused here.
func compactNonZeroI8(ab *[RowChunk]int32, ib *[RowChunk]int, chunk []int8, base int) int {
	if !useAVX2 || len(chunk) == 0 {
		return compactNonZeroI8Go(ab, ib, chunk, base)
	}
	if len(chunk) > RowChunk {
		panic("mat: compaction chunk exceeds its buffers")
	}
	return compactI8AVX2(&ab[0], &ib[0], &chunk[0], len(chunk), base)
}

// requantRow runs one validated, non-empty requantise row on the
// implementation chosen at init; an absent operand reaches the assembly
// as a nil pointer.
func requantRow(dst8 []int8, dst32 []int32, n int, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu, argmax bool) int {
	if !useAVX2 {
		return requantRowGo(dst8, dst32, n, acc, deq, bias, res, resScales, scales, scale, relu, argmax)
	}
	return requantRowAVX2(first(dst8), first(dst32), n, first(acc), first(deq), first(bias), first(res), first(resScales), first(scales), scale, relu, argmax)
}

// productRowI8 runs one validated product row of at least one column on
// the implementation chosen at init. The assembly narrows the loads of a
// row's last cols mod 8 columns against the source's final eight bytes
// (the over-read rule, axpy.go), so a source shorter than that — fewer
// than eight codes in all, under a row narrower than eight — stays with
// the portable kernel.
func productRowI8(e *CheckedEpilogueI8, dst []int8, acc, alpha []int32, idx CheckedIndices, src, res []int8, cont bool) int {
	var last *int8
	if end := idx.rows * e.cols; end >= 8 {
		last = &src[end-8]
	}
	if !useAVX2 || (last == nil && len(alpha) > 0) {
		return productRowI8Go(e, dst, acc, alpha, idx.idx, src, res, cont)
	}
	return productRowI8AVX2(e, &dst[0], &acc[0], unsafe.SliceData(alpha), unsafe.SliceData(idx.idx), len(alpha), unsafe.SliceData(src), last, unsafe.SliceData(res), cont)
}

// first is &s[0], or nil for a nil slice.
func first[E any](s []E) *E {
	if s == nil {
		return nil
	}
	return &s[0]
}
