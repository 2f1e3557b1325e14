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
func compactF64AVX2(ab *float64, ib *int, src *float64, n, base int) int

//go:noescape
func compactI8AVX2(ab *int32, ib *int, src *int8, n, base int) int

//go:noescape
func rowAccF64AVX2(out *float64, p int, alpha *float64, idx *int, n int, src *float64, ahead *int, nahead int, cont bool)

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

// rowAccF64 runs one validated, non-empty fp64 row accumulate on the
// implementation chosen at init.
func rowAccF64(out, alpha []float64, idx []int, src []float64, cont bool, ahead []int) {
	if !useAVX2 {
		rowAccF64Go(out, alpha, idx, src, cont)
		return
	}
	if len(out) < 8 || len(src) < aheadMinSource {
		ahead = nil
	}
	rowAccF64AVX2(&out[0], len(out), &alpha[0], &idx[0], len(alpha), &src[0], unsafe.SliceData(ahead), len(ahead), cont)
}

// rowAccI8 is rowAccF64's int8 counterpart. The assembly covers the
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

// compactNonZero and compactNonZeroI8 pick the dense products'
// compaction the same way. The assembly writes up to len(chunk) entries
// unchecked, so a chunk longer than the buffers is refused here.
func compactNonZero(ab *[RowChunk]float64, ib *[RowChunk]int, chunk []float64, base int) int {
	if !useAVX2 || len(chunk) == 0 {
		return compactNonZeroGo(ab, ib, chunk, base)
	}
	if len(chunk) > RowChunk {
		panic("mat: compaction chunk exceeds its buffers")
	}
	return compactF64AVX2(&ab[0], &ib[0], &chunk[0], len(chunk), base)
}

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
