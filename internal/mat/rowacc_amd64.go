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
// the two range routines' compactions read it.
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
func productRangeF64AVX2(a *rangeF64)

//go:noescape
func productRangeI8AVX2(a *rangeI8)

//go:noescape
func requantRowAVX2(dst *int8, n int, acc *int32, deq, bias *float64, res *int8, resScales, scales *float64, scale float64, relu, argmax bool) int

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

// The flags of a rangeF64 and a rangeI8. rangeCont (only ever from a row
// door), rangeBias, rangeRes, rangeReLU and rangeArgmax are the caller's —
// the int8 routine reads its bias and residual as present when their
// pointers are — rangeDense selects the dense walk, and rangeLast is the
// routines' own mark on the window that finishes a row.
const (
	rangeCont = 1 << iota
	rangeBias
	rangeRes
	rangeReLU
	rangeDense
	rangeLast
	rangeArgmax
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

// rangeI8 is the argument block of productRangeI8AVX2 (requant_amd64.s
// reads it by the offsets go_asm.h exports): rows output rows of p codes
// from dst on, contiguous, each the int8 row contract over src — at least
// eight codes, last its final eight (the over-read rule, axpy.go) —
// requantised under the epilogue operands: deq, the optional bias, the
// optional residual codes (res the first output row's, the rest following
// it) under resScales, dstScales, and the rangeReLU and rangeArgmax flags;
// labels, with rangeArgmax, receives one wide argmax a row. acc is the p
// int32 sums a row longer than one window continues through. A sparse
// call walks rowPtr: row i's multipliers are val from position rowPtr[i]
// to rowPtr[i+1] quantised under scale, a window of at most RowChunk at a
// time into codes, never past position end; its indices col over the same
// positions. A dense call (rangeDense) walks the n-wide input rows from a
// on, compacting each into alpha and idx, RowChunk entries long. The
// fields from alpha on are the routine's own cursors (a dense caller
// points alpha and idx at its buffers): the current window's multipliers,
// the row's state, and where the row and the window of codes stand.
type rangeI8 struct {
	dst, res  *int8
	labels    *int
	acc       *int32
	p, rows   int
	src, last *int8
	flags     uint64

	deq, bias, resScales, dstScales *float64

	rowPtr *int
	val    *float64
	col    *int
	scale  float64
	codes  *int32
	end    int

	a *int8
	n int

	alpha         *int32
	idx           *int
	terms         int
	state         uint64
	at, rowEnd, k int
	wlo, whi      int
}

// epilogue fills in the argument block's requantise operands: e's
// column count, scales, bias and flags.
func (a *rangeI8) epilogue(e *CheckedEpilogueI8) {
	a.p = e.cols
	a.deq, a.bias, a.resScales, a.dstScales = &e.deq[0], unsafe.SliceData(e.bias), unsafe.SliceData(e.resScales), &e.dstScales[0]
	if e.relu {
		a.flags |= rangeReLU
	}
	if e.argmax {
		a.flags |= rangeArgmax
	}
}

// The assembly narrows the loads of a row's last cols mod 8 columns
// against the source's final eight bytes (the over-read rule, axpy.go),
// so a source shorter than that — fewer than eight codes in all, under
// rows narrower than eight — stays with the portable kernel, range and
// row door alike: haveI8Kernel decides it once per call.
func haveI8Kernel(srcRows, p int) bool { return useAVX2 && srcRows*p >= 8 }

// productRowI8 runs one validated int8 product row of at least one
// column on the implementation chosen at init. The assembly's row door is
// its range routine handed a one-row CSR: the row's float64 multipliers
// and indices at positions [0, len(alpha)).
func productRowI8(e *CheckedEpilogueI8, dst []int8, acc []int32, alpha []float64, scale float64, idx CheckedIndices, src, res []int8, cont bool) int {
	if !haveI8Kernel(idx.rows, e.cols) {
		return productRowI8Go(e, dst, acc, alpha, scale, idx.idx, src, res, cont)
	}
	rowPtr := [2]int{0, len(alpha)}
	var codes [RowChunk]int32
	var label int
	var a rangeI8 // filled field by field: a composite literal is built aside and copied in, per row
	a.dst, a.res, a.acc, a.labels, a.rows = &dst[0], unsafe.SliceData(res), &acc[0], &label, 1
	a.src, a.last = &src[0], &src[idx.rows*e.cols-8]
	a.rowPtr, a.val, a.col = &rowPtr[0], unsafe.SliceData(alpha), unsafe.SliceData(idx.idx)
	a.scale, a.codes, a.end = scale, &codes[0], len(alpha)
	if cont {
		a.flags = rangeCont
	}
	a.epilogue(e)
	productRangeI8AVX2(&a)
	return label
}

// sparseRangeI8 runs the validated rows of c, at least one of at least
// one column, on the implementation chosen at init.
func sparseRangeI8(e *CheckedEpilogueI8, dst []int8, c *CheckedCSR, valScale float64, src, res []int8, acc []int32, labels []int) {
	if !haveI8Kernel(c.srcRows, e.cols) {
		sparseRangeI8Go(e, dst, c, valScale, src, res, acc, labels)
		return
	}
	var codes [RowChunk]int32
	a := rangeI8{
		dst: &dst[0], res: unsafe.SliceData(res), acc: &acc[0], labels: unsafe.SliceData(labels), rows: c.rows,
		src: &src[0], last: &src[c.srcRows*e.cols-8],
		rowPtr: &c.rowPtr[0], val: unsafe.SliceData(c.val), col: unsafe.SliceData(c.col),
		scale: valScale, codes: &codes[0], end: c.rowPtr[c.rows],
	}
	a.epilogue(e)
	productRangeI8AVX2(&a)
}

// denseRangeI8 is sparseRangeI8 for the dense product: rows input rows
// of n codes from a on, times the n×e.cols matrix w.
func denseRangeI8(e *CheckedEpilogueI8, dst, a []int8, n int, w, res []int8, rows int, acc []int32, labels []int) {
	if !haveI8Kernel(n, e.cols) {
		denseRangeI8Go(e, dst, a, n, w, res, rows, acc, labels)
		return
	}
	var ab [RowChunk]int32
	var ib [RowChunk]int
	args := rangeI8{
		dst: &dst[0], res: unsafe.SliceData(res), acc: &acc[0], labels: unsafe.SliceData(labels), rows: rows,
		src: &w[0], last: &w[n*e.cols-8],
		flags: rangeDense, a: unsafe.SliceData(a), n: n, alpha: &ab[0], idx: &ib[0],
	}
	args.epilogue(e)
	productRangeI8AVX2(&args)
}

// requantRow runs one validated, non-empty requantise row on the
// implementation chosen at init; an absent operand reaches the assembly
// as a nil pointer.
func requantRow(dst []int8, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu, argmax bool) int {
	if !useAVX2 {
		return requantRowGo(dst, acc, deq, bias, res, resScales, scales, scale, relu, argmax)
	}
	return requantRowAVX2(&dst[0], len(dst), unsafe.SliceData(acc), unsafe.SliceData(deq), unsafe.SliceData(bias), unsafe.SliceData(res), unsafe.SliceData(resScales), unsafe.SliceData(scales), scale, relu, argmax)
}
