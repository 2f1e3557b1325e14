//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 int8 kernels — see the contracts at the top of requant.go (the
// requantise row) and axpy.go (the row accumulate, its int8 range clause);
// this file changes how few instructions carry them out, not one operation
// of either.
//
// Two routines. requantRowAVX2 is the requantise row alone: four columns
// a step under lane masks, the operand tests inside it, for everything
// RequantizeRow and the single-scale form are called with — a plain
// float64 source (the boundary quantiser), residual codes (the standalone
// element-wise ops), one scale for the row. productRangeI8AVX2 is every
// int8 product: it walks rows lo…hi−1 of a sparse or a dense product
// without returning to Go between them — per row the exact int32
// multiply-accumulate, then the requantise of those sums, and the wide
// argmax where the product asks for it. The int8 multiply-accumulate
// blocks, the eight-column requantise step, the CSR value quantisation
// and the dense compaction exist once, there.
//
// Rounding. The contract's clamp±127(roundHalfAway(q)) is computed as
//
//	trunc(c + copysign(pred(½), c)),   c = max(min(q, 127), −127),   pred(½) = ½ − 2⁻⁵⁴
//
// with the truncation done by the conversion to int32 itself. It is exact
// for every finite c = ±(k + r), k an integer, 0 ≤ r < 1:
//
//   - r < ½: r and ½ are both multiples of ulp(c), so r ≤ ½ − ulp(c) and
//     the sum is at most k + 1 − ulp(c) − 2⁻⁵⁴, short of the midpoint
//     below k + 1; it rounds to less than k + 1 and truncates to k.
//   - r ≥ ½: the sum is at least k + 1 − 2⁻⁵⁴, which lies at or past the
//     midpoint between k + 1 and its predecessor (their gap is at least
//     2⁻⁵³); the one tie, ½ + pred(½) = 1 − 2⁻⁵⁴, goes to the even
//     neighbour, 1. The sum is below k + 2, so it truncates to k + 1.
//   - adding ½ itself would fail the first case at r = pred(½): the sum
//     rounds to 1.
//
// The clamp may come first because rounding is monotone and leaves the
// integers ±127 where they are: round(clamp(q)) = clamp(round(q)), and
// ±Inf clamp to ±127 like anything else beyond them. A NaN quotient
// leaves the clamp as 127 (VMINPD answers its second source) and is
// zeroed, with the columns whose scale is not above zero, by the mask.
//
// ReLU is one VMAXPD with +0 as the SECOND source (Go operand order puts
// it first): the instruction answers its second source when f is NaN and
// when both are zeros, so NaN → +0 and −0 → +0, and f > 0 stays f.
// Swapping the sources would pass a NaN through.
//
// Measured on the build host (Xeon Sapphire Rapids VM 2.1 GHz, shared and
// noisy, GOMAXPROCS 1): the divider's own throughput, four columns every
// eight cycles, is 30 ns for 32 columns, so a wide row waits for the
// divide and the vector ports around it; a narrow one is a few dozen
// instructions around one masked divide. Per-row figures for the range
// are in DESIGN.md, "One call per op range".
//
// requantRowAVX2:
//
//	DI  dst      CX  n        BX  column j
//	SI  acc      R8  deq      R9  bias     R10 res      R11 resScales
//	R12 scales (nil: Y3 holds the one scale for the whole call)
//	R14 relu     R13 columns left / scratch   R15 scratch
//	Y10 −127   Y11 127   Y13 pred(½)   Y14 sign bit   Y15 zero
//	general step: Y0 f   Y1, Y2 scratch   Y3 scale[j]
//	              Y8 lane mask, quadwords   X12 lane mask, doublewords

DATA requantConst<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA requantConst<>+8(SB)/8, $0x3fdfffffffffffff // pred(½) = ½ − 2⁻⁵⁴
DATA requantConst<>+16(SB)/8, $0x405fc00000000000 // 127
DATA requantConst<>+24(SB)/8, $0xc05fc00000000000 // −127
DATA requantConst<>+32(SB)/8, $0xfff0000000000000 // −Inf
DATA requantConst<>+40(SB)/8, $4
GLOBL requantConst<>(SB), RODATA|NOPTR, $48

// laneNumbers: the columns 0,1,2,3 the four lanes start on, as the
// quadwords the argmax and the compaction carry and as the doublewords
// the int32 tail mask is compared from.
DATA laneNumbers<>+0(SB)/8, $0
DATA laneNumbers<>+8(SB)/8, $1
DATA laneNumbers<>+16(SB)/8, $2
DATA laneNumbers<>+24(SB)/8, $3
GLOBL laneNumbers<>(SB), RODATA|NOPTR, $32
DATA laneNumbers32<>+0(SB)/4, $0
DATA laneNumbers32<>+4(SB)/4, $1
DATA laneNumbers32<>+8(SB)/4, $2
DATA laneNumbers32<>+12(SB)/4, $3
GLOBL laneNumbers32<>(SB), RODATA|NOPTR, $16

// QUANT turns four columns of f under their scales s into int32 codes in
// xq, the low half of q; f and t are consumed.
//
//	q = f/s                       the true divide
//	f = (s > 0) & (q == q)        the columns that keep their code
//	q = max(min(q, 127), −127)    the second source answers a NaN, so q is finite from here on
//	q = q + copysign(pred(½), q)
//	q = q & f                     +0 where s ≤ 0 or the quotient was NaN
//	xq = int32(trunc(q))          the conversion truncates
#define QUANT(f, s, q, xq, t) \
	VDIVPD s, f, q \
	VCMPPD $0x1e, Y15, s, t \
	VCMPPD $0x07, q, q, f \
	VANDPD t, f, f \
	VMINPD Y11, q, q \
	VMAXPD Y10, q, q \
	VANDPD Y14, q, t \
	VORPD Y13, t, t \
	VADDPD t, q, q \
	VANDPD f, q, q \
	VCVTTPD2DQY q, xq

// FOLD folds the candidate lanes (vals, cols) into the low lanes of
// Y7/Y6: a candidate wins with a greater value, or an equal value from
// an earlier column.
#define FOLD(vals, cols) \
	VCMPPD $0x1e, Y7, vals, Y1 \
	VCMPPD $0x00, Y7, vals, Y2 \
	VPCMPGTQ cols, Y6, Y4 \
	VANDPD Y4, Y2, Y2 \
	VORPD Y2, Y1, Y1 \
	VBLENDVPD Y1, vals, Y7, Y7 \
	VBLENDVPD Y1, cols, Y6, Y6

// func requantRowAVX2(dst *int8, n int, acc *int32, deq, bias *float64, res *int8, resScales, scales *float64, scale float64, relu bool)
// Requires n ≥ 1, one of acc/bias/res, deq with acc, resScales with res,
// and every present operand n long.
TEXT ·requantRowAVX2(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ acc+16(FP), SI
	MOVQ deq+24(FP), R8
	MOVQ bias+32(FP), R9
	MOVQ res+40(FP), R10
	MOVQ resScales+48(FP), R11
	MOVQ scales+56(FP), R12
	VBROADCASTSD scale+64(FP), Y3
	MOVBQZX relu+72(FP), R14
	VBROADCASTSD requantConst<>+0(SB), Y14
	VBROADCASTSD requantConst<>+8(SB), Y13
	VBROADCASTSD requantConst<>+16(SB), Y11
	VBROADCASTSD requantConst<>+24(SB), Y10
	VXORPD Y15, Y15, Y15
	XORQ BX, BX

	// The general step: four columns under the lane masks Y8 (quadwords)
	// and X12 (doublewords), all ones until fewer than four columns are
	// left. Masked loads read nothing, and masked stores write nothing,
	// beyond column n; what the idle lanes compute is never kept.
general:
	VPCMPEQD Y8, Y8, Y8
	VPCMPEQD X12, X12, X12

step:
	MOVQ CX, R13
	SUBQ BX, R13
	JLE done
	CMPQ R13, $4
	JGE terms
	VMOVQ R13, X0
	VPBROADCASTQ X0, Y0
	VPCMPGTQ laneNumbers<>(SB), Y0, Y8
	VPBROADCASTD X0, X0
	VPCMPGTD laneNumbers32<>(SB), X0, X12

terms:
	TESTQ SI, SI
	JZ noAcc
	VPMASKMOVD (SI)(BX*4), X12, X0
	VCVTDQ2PD X0, Y0
	VMASKMOVPD (R8)(BX*8), Y8, Y1
	VMULPD Y1, Y0, Y0
	TESTQ R9, R9
	JZ residual
	VMASKMOVPD (R9)(BX*8), Y8, Y1
	VADDPD Y1, Y0, Y0
	JMP residual
noAcc:
	TESTQ R9, R9
	JZ residual
	VMASKMOVPD (R9)(BX*8), Y8, Y0
residual:
	TESTQ R10, R10
	JZ relu
	CMPQ R13, $4
	JLT resBytes
	VPMOVSXBD (R10)(BX*1), X1
	JMP resTerm
resBytes:
	VPXOR X1, X1, X1
	VPINSRB $0, (R10)(BX*1), X1, X1
	CMPQ R13, $2
	JLT resWiden
	VPINSRB $1, 1(R10)(BX*1), X1, X1
	JEQ resWiden
	VPINSRB $2, 2(R10)(BX*1), X1, X1
resWiden:
	VPMOVSXBD X1, X1
resTerm:
	VCVTDQ2PD X1, Y1
	VMASKMOVPD (R11)(BX*8), Y8, Y2
	VMULPD Y2, Y1, Y1
	MOVQ SI, R15
	ORQ R9, R15
	JZ resOnly
	VADDPD Y1, Y0, Y0
	JMP relu
resOnly:
	VMOVAPD Y1, Y0
relu:
	TESTQ R14, R14
	JZ scales
	VMAXPD Y15, Y0, Y0
scales:
	TESTQ R12, R12
	JZ quant
	VMASKMOVPD (R12)(BX*8), Y8, Y3
quant:
	QUANT(Y0, Y3, Y1, X1, Y2)
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	CMPQ R13, $4
	JLT bytes
	VMOVD X1, (DI)(BX*1)
	JMP next
bytes:
	VPEXTRB $0, X1, (DI)(BX*1)
	CMPQ R13, $2
	JLT next
	VPEXTRB $1, X1, 1(DI)(BX*1)
	JEQ next
	VPEXTRB $2, X1, 2(DI)(BX*1)
next:
	ADDQ $4, BX
	JMP step

done:
	VZEROUPPER
	RET


// The int8 product range. One output row is the row accumulate (axpy.go)
// into exact int32 sums and the requantise row (requant.go) of those sums;
// a range call is that composition applied to rows lo…hi−1 in order — see
// the int8 range clause in axpy.go for what is proved before the call and
// by whom.
//
// A row's multipliers reach the multiply-accumulate a window of at most
// RowChunk at a time, as int32 codes in the caller's stack buffer. A
// sparse row's are the CSR's float64 values quantised here under the
// range's one value scale — QUANT over a plain source, four values a
// step, the step QuantizeI8 defines — a window of the range's values at
// a time, across rows, refilled when a row reaches its end; a dense row's
// are the non-zero codes of the input row, compacted here with their
// positions a window of RowChunk entries at a time. Every window of a row
// but its last accumulates bare into acc (the first from zero, the rest
// continuing; a dense window of zeros is skipped), the last carries the
// requantise. Integer sums are exact, so where the windows fall changes
// nothing.
//
// Blocks. A window's share of the row is summed in column blocks: 64, 32,
// 16 and 8 columns — eight, four, two, one accumulators of eight — while
// that many columns are left, then one block of the last 1–7 columns. Per
// block the int32 sums are built in Y0–Y7 across every term and, on the
// row's last window, requantised before the next block starts.
//
// Two terms per multiply. The blocks of whole eights take a window's
// terms in pairs t, t+1: the two source rows' bytes interleaved
// (VPUNPCKLBW/VPUNPCKHBW), widened to int16 (VPMOVSXBW) and multiplied
// against the int16 pair (alpha[t], alpha[t+1]) by VPMADDWD, which adds
// each column's two products into one int32 — one multiply for sixteen
// products where VPMULLD, two micro-ops, made eight. The operands are int8
// codes, so a product is at most 128² and a pair's sum at most 2¹⁵: no
// saturation, and the int32 sums are exact in any order. An odd last term,
// and every term of the last 1–7 columns with its clamped load, is widened
// to int32 and multiplied alone (VPMOVSXBD, VPMULLD).
//
// Where the sums go. The last 1–7 columns are requantised out of Y0 —
// the general step of requantRowAVX2, four columns under a lane mask, fed
// from the accumulator's halves instead of memory: a row narrower than
// eight (the 3-wide logits) never touches acc unless it continues a
// longer one. Blocks of whole eights store their sums to acc and convert
// them from there: VCVTDQ2PD from memory is one shuffle cheaper than from
// a register half, and on a row this wide the vector ports, not the
// store-to-load hop, are what the row waits for (measured, 32 columns × 6
// terms, bare accumulator: sums kept in registers 43 ns a row against 38
// stored and reloaded).
//
// The last 1–7 columns of a source row are not eight bytes: they are
// loaded as the eight bytes at min(their address, last), last being the
// source's final eight bytes, and shifted down by the difference, so the
// load ends at the source's end at the latest — the over-read rule of
// axpy.go. The bytes above them are other columns or zeros; their
// products land in lanes nothing below reads.
//
// Requantise. Eight columns a step where eight are left: requant.go's
// operations in its order as two four-lane chains (two divides in
// flight), the optional operands tested, not dispatched — the tests
// predict, and there is one routine instead of a loop per form. A
// wide-argmax row takes the general step throughout, which carries the
// argmax in three more registers, and keeps to the blocks of 32 columns
// and fewer, whose products stay clear of them.
//
// The routine does not return between rows, so the upper halves of the
// YMM registers stay dirty from its first row to its VZEROUPPER: every
// vector instruction in it must be VEX-encoded (rowacc_amd64.s has what
// one legacy-SSE MOVQ per row cost the fp64 routine).
//
//	AX  the argument block (rangeI8, rowacc_amd64.go); everything a row
//	    or a window hands on — its multipliers, their count, its state
//	    (the rangeCont … rangeLast flags) — goes through it, so every
//	    other register is free between windows
//	sparse row:  R11 the row's next term   R9 its end   DX its state
//	value codes: SI val cursor   DI codes cursor   CX values left
//	             Y3 the value scale   Y0–Y2, Y4, Y8, Y9 the two chains
//	compaction:  SI input row   DX position   CX window end   R11 end of
//	             its whole fours   DI ab   BX ib   R8 cursor   R9 ·packLUT
//	             R12, R13 scratch   Y5 position of the four lanes   Y6 fours
//	             Y8 the low-doubleword gather   Y0–Y3 scratch
//	block:       BX column    CX columns left    R10 p
//	multiply-accumulate:
//	SI  alpha   R8  idx   R9  n−1   DX  src + column   R11 t
//	R12 row t   R15 row t+1 (tail: bytes to shift out)   DI  acc + 4·column
//	R13 cont   R14 last
//	Y0–Y7 accumulators (Y0–Y3 below 64 columns)   Y8 alpha[t], or the pair
//	Y4, Y9, Y12 scratch (Y9, Y12 in the 64-column block)
//	requantise:
//	DI  dst   SI  deq   R8  bias   R9  res   R11 resScales   R12 dstScales
//	DX  state    R14 eights (general step: fours) left in the block
//	R13 columns in this step  R15 acc, or 0 where the sums are in Y0
//	Y10 −127   Y11 127   Y13 pred(½)   Y14 sign bit   Y15 zero
//	eight columns: Y4, Y5 f   Y12, Y0 scales   Y6–Y9 scratch
//	general step:  Y4 f   Y1, Y2 scratch   Y3 scale   Y8 lane mask   Y9 the step
//	               Y5 column numbers of the lanes   Y6 best column   Y7 best f

// laneNumbers32x8: the lanes 0…7 of an eight-doubleword step, for the
// mask a row's last 1–7 sums are loaded and stored under.
DATA laneNumbers32x8<>+0(SB)/4, $0
DATA laneNumbers32x8<>+4(SB)/4, $1
DATA laneNumbers32x8<>+8(SB)/4, $2
DATA laneNumbers32x8<>+12(SB)/4, $3
DATA laneNumbers32x8<>+16(SB)/4, $4
DATA laneNumbers32x8<>+20(SB)/4, $5
DATA laneNumbers32x8<>+24(SB)/4, $6
DATA laneNumbers32x8<>+28(SB)/4, $7
GLOBL laneNumbers32x8<>(SB), RODATA|NOPTR, $32

// lowDoublewords: the VPERMD indices 0,2,4,6 that gather the low
// doublewords of four quadwords (the upper four indices are don't-cares).
DATA lowDoublewords<>+0(SB)/8, $0x0000000200000000
DATA lowDoublewords<>+8(SB)/8, $0x0000000600000004
DATA lowDoublewords<>+16(SB)/8, $0
DATA lowDoublewords<>+24(SB)/8, $0
GLOBL lowDoublewords<>(SB), RODATA|NOPTR, $32

// TERMI8 points R12 at this block's slice of row idx[t] (R10 the source's
// row stride in bytes, DX the source plus the block's offset) and
// broadcasts alpha[t].
#define TERMI8 \
	MOVQ (R8)(R11*8), R12 \
	IMULQ R10, R12 \
	ADDQ DX, R12 \
	VPBROADCASTD (SI)(R11*4), Y8

// MACI8 widens eight int8 columns to int32, multiplies and adds.
#define MACI8(off, tmp, acc) \
	VPMOVSXBD off(R12), tmp \
	VPMULLD Y8, tmp, tmp \
	VPADDD tmp, acc, acc

// TERMI8PAIR points R12 and R15 at this block's slices of rows idx[t] and
// idx[t+1] and puts the int16 pair (alpha[t], alpha[t+1]) in every
// doubleword of Y8: the two int32 multipliers broadcast as one quadword,
// then packed to words. They are int8 codes, so the saturating pack keeps
// them.
#define TERMI8PAIR \
	MOVQ (R8)(R11*8), R12 \
	IMULQ R10, R12 \
	ADDQ DX, R12 \
	MOVQ 8(R8)(R11*8), R15 \
	IMULQ R10, R15 \
	ADDQ DX, R15 \
	VPBROADCASTQ (SI)(R11*4), Y8 \
	VPACKSSDW Y8, Y8, Y8

// MACI8PAIR16 interleaves sixteen int8 columns of rows t and t+1, widens
// the byte pairs to int16 and multiply-adds each pair into one int32:
// columns off…off+7 into acc0, off+8…off+15 into acc1. Row t+1 is read
// as the unpacks' memory operand, so lo and hi are all the scratch.
#define MACI8PAIR16(off, xlo, lo, xhi, hi, acc0, acc1) \
	VMOVDQU off(R12), xlo \
	VPUNPCKHBW off(R15), xlo, xhi \
	VPUNPCKLBW off(R15), xlo, xlo \
	VPMOVSXBW xlo, lo \
	VPMOVSXBW xhi, hi \
	VPMADDWD Y8, lo, lo \
	VPMADDWD Y8, hi, hi \
	VPADDD lo, acc0, acc0 \
	VPADDD hi, acc1, acc1

// func productRangeI8AVX2(a *rangeI8)
// Computes a.rows output rows of a.p ≥ 1 columns. Everything the routine
// reads unchecked was proved by its Go callers before the call (axpy.go,
// the int8 range clause): the row pointers non-negative, non-decreasing
// and inside val/col, every col[k]·p+p and every dense position·p+p within
// src, src at least eight codes with last its final eight, the epilogue
// operands p long, dst and the residual rows·p, acc p, labels rows.
TEXT ·productRangeI8AVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	VBROADCASTSD requantConst<>+0(SB), Y14
	VBROADCASTSD requantConst<>+8(SB), Y13
	VBROADCASTSD requantConst<>+16(SB), Y11
	VBROADCASTSD requantConst<>+24(SB), Y10
	VXORPD Y15, Y15, Y15
	TESTQ $const_rangeDense, rangeI8_flags(AX)
	JNZ riDenseRow

riSparseRow:
	// The row's multipliers and indices are the CSR's own, from the
	// row's position on.
	MOVQ rangeI8_rowPtr(AX), R15
	MOVQ (R15), R11
	MOVQ 8(R15), R9
	ADDQ $8, R15
	MOVQ R15, rangeI8_rowPtr(AX)
	MOVQ R9, rangeI8_rowEnd(AX)
	MOVQ rangeI8_flags(AX), DX

riSparseWindow:
	// What is left of the row, [R11, R9), against the window of value
	// codes [wlo, whi): a row that ends inside it is finished with this
	// call of the row body, one that runs past it sums the window's share
	// bare and comes back here for a new window.
	CMPQ R11, R9
	JGE riSparseNone
	CMPQ R11, rangeI8_whi(AX)
	JLT riSparseTerms

	// Refill: the codes of val[R11 : min(R11+RowChunk, end)], end the
	// range's last value. Whole fours two chains at a time, then one, then
	// the last 1–3 values under a lane mask — nothing past val[end] is
	// read; the codes buffer is a whole number of fours, so the last store
	// stays inside it.
	MOVQ R11, rangeI8_wlo(AX)
	MOVQ R11, R12
	ADDQ $const_RowChunk, R12
	MOVQ rangeI8_end(AX), CX
	CMPQ R12, CX
	CMOVQGT CX, R12
	MOVQ R12, rangeI8_whi(AX)
	MOVQ R12, CX
	SUBQ R11, CX
	MOVQ rangeI8_val(AX), SI
	LEAQ (SI)(R11*8), SI
	MOVQ rangeI8_codes(AX), DI
	VBROADCASTSD rangeI8_scale(AX), Y3
riQuant8:
	CMPQ CX, $8
	JLT riQuant4
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	QUANT(Y0, Y3, Y1, X1, Y2)
	QUANT(Y4, Y3, Y8, X8, Y9)
	VMOVDQU X1, (DI)
	VMOVDQU X8, 16(DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP riQuant8
riQuant4:
	CMPQ CX, $4
	JLT riQuantTail
	VMOVUPD (SI), Y0
	QUANT(Y0, Y3, Y1, X1, Y2)
	VMOVDQU X1, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $4, CX
riQuantTail:
	TESTQ CX, CX
	JZ riSparseTerms
	VMOVQ CX, X1
	VPBROADCASTQ X1, Y1
	VPCMPGTQ laneNumbers<>(SB), Y1, Y2
	VMASKMOVPD (SI), Y2, Y0
	QUANT(Y0, Y3, Y1, X1, Y2)
	VMOVDQU X1, (DI)

riSparseTerms:
	MOVQ rangeI8_whi(AX), R12
	MOVQ R11, SI
	SUBQ rangeI8_wlo(AX), SI
	SHLQ $2, SI
	ADDQ rangeI8_codes(AX), SI
	MOVQ SI, rangeI8_alpha(AX)
	MOVQ rangeI8_col(AX), R8
	LEAQ (R8)(R11*8), R8
	MOVQ R8, rangeI8_idx(AX)
	CMPQ R9, R12
	JLE riSparseLast
	MOVQ R12, rangeI8_at(AX)
	SUBQ R11, R12
	MOVQ R12, rangeI8_terms(AX)
	JMP riRow
riSparseNone:
	// No term (left): cleared sums, or the sums so far, and the requantise.
	MOVQ $0, rangeI8_terms(AX)
	ORQ $const_rangeLast, DX
	JMP riRow
riSparseLast:
	SUBQ R11, R9
	MOVQ R9, rangeI8_terms(AX)
	ORQ $const_rangeLast, DX
	JMP riRow

riDenseRow:
	// A dense product's row i is the row contract over the non-zero codes
	// of input row i: their values the multipliers, their positions the
	// indices — in [0, n) by construction, n·p ≤ len(src) proved by the
	// caller.
	MOVQ $0, rangeI8_k(AX)
	MOVQ rangeI8_flags(AX), DX
	MOVQ DX, rangeI8_state(AX)

riDenseWindow:
	// Compact the window: four codes a step, widened to quadwords to share
	// the fp64 compaction's packing table (a mask's row of ·packLUT moves
	// the selected quadwords to the front), values narrowed to the int32
	// multipliers as they are stored. Each step stores a full vector at
	// the cursor and advances it by the mask's population count; the
	// cursor never passes the read position, so the stores stay inside
	// the RowChunk entries of ab and ib.
	MOVQ rangeI8_a(AX), SI
	MOVQ rangeI8_k(AX), DX
	MOVQ rangeI8_n(AX), CX
	MOVQ DX, R11
	ADDQ $const_RowChunk, R11
	CMPQ R11, CX
	CMOVQLT R11, CX
	MOVQ rangeI8_alpha(AX), DI
	MOVQ rangeI8_idx(AX), BX
	XORQ R8, R8
	VMOVQ DX, X5
	VPBROADCASTQ X5, Y5
	VPADDQ laneNumbers<>(SB), Y5, Y5
	VPBROADCASTQ requantConst<>+40(SB), Y6
	VMOVDQU lowDoublewords<>(SB), Y8
	LEAQ ·packLUT(SB), R9
	MOVQ CX, R11
	SUBQ DX, R11
	ANDQ $-4, R11
	ADDQ DX, R11
	JMP riCompactTest4
riCompact4:
	VPMOVSXBQ (SI)(DX*1), Y0
	VPCMPEQQ Y15, Y0, Y1
	VMOVMSKPD Y1, R12
	XORQ $15, R12
	MOVQ R12, R13
	SHLQ $5, R13
	VMOVDQU (R9)(R13*1), Y2
	VPERMD Y0, Y2, Y3
	VPERMD Y3, Y8, Y3
	VMOVDQU X3, (DI)(R8*4)
	VPERMD Y5, Y2, Y3
	VMOVDQU Y3, (BX)(R8*8)
	VPADDQ Y6, Y5, Y5
	POPCNTQ R12, R12
	ADDQ R12, R8
	ADDQ $4, DX
riCompactTest4:
	CMPQ DX, R11
	JLT riCompact4
	JMP riCompactTest1
riCompact1:
	MOVBQSX (SI)(DX*1), R12
	MOVL R12, (DI)(R8*4)
	MOVQ DX, (BX)(R8*8)
	NEGQ R12 // carry set unless zero
	ADCQ $0, R8
	INCQ DX
riCompactTest1:
	CMPQ DX, CX
	JLT riCompact1

	MOVQ DX, rangeI8_k(AX)
	MOVQ R8, rangeI8_terms(AX)
	CMPQ DX, rangeI8_n(AX)
	MOVQ rangeI8_state(AX), DX
	JEQ riDenseLast
	TESTQ R8, R8
	JZ riDenseWindow
	JMP riRow
riDenseLast:
	ORQ $const_rangeLast, DX

riRow:
	// One window's share of an output row: terms multipliers at alpha/idx
	// under the state in DX. The argmax state is seeded here, after the
	// value codes and the compaction are done with its registers.
	MOVQ DX, rangeI8_state(AX)
	MOVQ rangeI8_p(AX), CX
	MOVQ CX, R10
	XORQ BX, BX
	VBROADCASTSD requantConst<>+32(SB), Y7
	VMOVDQU laneNumbers<>(SB), Y5
	VMOVDQA Y5, Y6

riBlock:
	TESTQ CX, CX
	JZ riRowDone
	MOVQ rangeI8_alpha(AX), SI
	MOVQ rangeI8_idx(AX), R8
	// R9 = n−1: the blocks of whole eights take their terms in pairs
	// while t < n−1, then an odd last term, t = n−1, alone; the tail takes
	// every term alone, while t ≤ n−1.
	MOVQ rangeI8_terms(AX), R9
	DECQ R9
	MOVQ rangeI8_src(AX), DX
	ADDQ BX, DX
	MOVQ rangeI8_acc(AX), DI
	LEAQ (DI)(BX*4), DI
	MOVQ rangeI8_state(AX), R13
	ANDQ $const_rangeCont, R13
	XORQ R11, R11
	CMPQ CX, $8
	JLT riTail
	CMPQ CX, $64
	JGE riBlock64
riNarrower:
	CMPQ CX, $32
	JGE riBlock32
	CMPQ CX, $16
	JGE riBlock16

	MOVQ $1, R14
	VPXOR Y0, Y0, Y0
	TESTQ R13, R13
	JZ riTest8
	VMOVDQU 0(DI), Y0
	JMP riTest8
riLoop8:
	// Eight bytes a row, never sixteen: the over-read rule.
	TERMI8PAIR
	VMOVQ (R12), X4
	VMOVQ (R15), X9
	VPUNPCKLBW X9, X4, X4
	VPMOVSXBW X4, Y4
	VPMADDWD Y8, Y4, Y4
	VPADDD Y4, Y0, Y0
	ADDQ $2, R11
riTest8:
	CMPQ R11, R9
	JLT riLoop8
	JNE riStore8
	TERMI8
	MACI8(0, Y4, Y0)
riStore8:
	VMOVDQU Y0, 0(DI)
	JMP riSummed

riBlock16:
	MOVQ $2, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	TESTQ R13, R13
	JZ riTest16
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	JMP riTest16
riLoop16:
	TERMI8PAIR
	MACI8PAIR16(0, X4, Y4, X9, Y9, Y0, Y1)
	ADDQ $2, R11
riTest16:
	CMPQ R11, R9
	JLT riLoop16
	JNE riStore16
	TERMI8
	MACI8(0, Y4, Y0)
	MACI8(8, Y9, Y1)
riStore16:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	JMP riSummed

riBlock32:
	MOVQ $4, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ R13, R13
	JZ riTest32
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	JMP riTest32
riLoop32:
	TERMI8PAIR
	MACI8PAIR16(0, X4, Y4, X9, Y9, Y0, Y1)
	MACI8PAIR16(16, X12, Y12, X4, Y4, Y2, Y3)
	ADDQ $2, R11
riTest32:
	CMPQ R11, R9
	JLT riLoop32
	JNE riStore32
	TERMI8
	MACI8(0, Y4, Y0)
	MACI8(8, Y9, Y1)
	MACI8(16, Y12, Y2)
	MACI8(24, Y4, Y3)
riStore32:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	JMP riSummed

	// Sixty-four columns take Y4–Y7 too, where an argmax row keeps its
	// candidates: such a row stays with the narrower blocks.
riBlock64:
	TESTQ $const_rangeArgmax, rangeI8_state(AX)
	JNZ riNarrower
	MOVQ $8, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	TESTQ R13, R13
	JZ riTest64
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	JMP riTest64
riLoop64:
	TERMI8PAIR
	MACI8PAIR16(0, X9, Y9, X12, Y12, Y0, Y1)
	MACI8PAIR16(16, X9, Y9, X12, Y12, Y2, Y3)
	MACI8PAIR16(32, X9, Y9, X12, Y12, Y4, Y5)
	MACI8PAIR16(48, X9, Y9, X12, Y12, Y6, Y7)
	ADDQ $2, R11
riTest64:
	CMPQ R11, R9
	JLT riLoop64
	JNE riStore64
	TERMI8
	MACI8(0, Y9, Y0)
	MACI8(8, Y12, Y1)
	MACI8(16, Y9, Y2)
	MACI8(24, Y12, Y3)
	MACI8(32, Y9, Y4)
	MACI8(40, Y12, Y5)
	MACI8(48, Y9, Y6)
	MACI8(56, Y12, Y7)
riStore64:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)

riSummed:
	// R14 eights are summed into acc. A bare window leaves them there.
	MOVQ rangeI8_state(AX), DX
	TESTQ $const_rangeLast, DX
	JNZ riRequant
	LEAQ (BX)(R14*8), BX
	SHLQ $3, R14
	SUBQ R14, CX
	JMP riBlock

	// The last 1–7 columns: the sums so far loaded, and a bare window's
	// stored, under a doubleword lane mask (a fresh row finished here
	// needs neither); each term's bytes by the clamped load.
riTail:
	VPXOR Y0, Y0, Y0
	MOVQ rangeI8_state(AX), R15
	XORQ $const_rangeLast, R15
	TESTQ $(const_rangeCont|const_rangeLast), R15
	JZ riTailTerms
	VMOVQ CX, X4
	VPBROADCASTD X4, Y4
	VPCMPGTD laneNumbers32x8<>(SB), Y4, Y12
	TESTQ R13, R13
	JZ riTailTerms
	VPMASKMOVD (DI), Y12, Y0
riTailTerms:
	MOVQ rangeI8_last(AX), R14
	JMP riTestTail
riLoopTail:
	TERMI8
	MOVQ R12, R15
	CMPQ R12, R14
	CMOVQHI R14, R12
	SUBQ R12, R15
	SHLQ $3, R15
	VMOVQ R15, X9
	VMOVQ (R12), X4
	VPSRLQ X9, X4, X4
	VPMOVSXBD X4, Y4
	VPMULLD Y8, Y4, Y4
	VPADDD Y4, Y0, Y0
	INCQ R11
riTestTail:
	CMPQ R11, R9
	JLE riLoopTail
	MOVQ rangeI8_state(AX), DX
	MOVQ $1, R14
	TESTQ $const_rangeLast, DX
	JNZ riRequant
	VPMASKMOVD Y0, Y12, (DI)
	JMP riRowDone

riRequant:
	MOVQ rangeI8_dst(AX), DI
	MOVQ rangeI8_deq(AX), SI
	MOVQ rangeI8_bias(AX), R8
	MOVQ rangeI8_res(AX), R9
	MOVQ rangeI8_resScales(AX), R11
	MOVQ rangeI8_dstScales(AX), R12
	MOVQ rangeI8_acc(AX), R15

riGroup:
	CMPQ CX, $8
	JLT riGeneral
	TESTQ $const_rangeArgmax, DX
	JNZ riGeneral

	// Eight columns of the sums the block stored.
	VCVTDQ2PD (R15)(BX*4), Y4
	VCVTDQ2PD 16(R15)(BX*4), Y5
	VMULPD (SI)(BX*8), Y4, Y4
	VMULPD 32(SI)(BX*8), Y5, Y5
	TESTQ R8, R8
	JZ riRes8
	VADDPD (R8)(BX*8), Y4, Y4
	VADDPD 32(R8)(BX*8), Y5, Y5
riRes8:
	TESTQ R9, R9
	JZ riReLU8
	VPMOVSXBD (R9)(BX*1), Y6
	VCVTDQ2PD X6, Y7
	VEXTRACTI128 $1, Y6, X6
	VCVTDQ2PD X6, Y6
	VMULPD (R11)(BX*8), Y7, Y7
	VMULPD 32(R11)(BX*8), Y6, Y6
	VADDPD Y7, Y4, Y4
	VADDPD Y6, Y5, Y5
riReLU8:
	TESTQ $const_rangeReLU, DX
	JZ riQuant8cols
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
riQuant8cols:
	VMOVUPD (R12)(BX*8), Y12
	VMOVUPD 32(R12)(BX*8), Y0
	QUANT(Y4, Y12, Y6, X6, Y7)
	QUANT(Y5, Y0, Y8, X8, Y9)
	VPACKSSDW X8, X6, X6
	VPACKSSWB X6, X6, X6
	VMOVQ X6, (DI)(BX*1)
	ADDQ $8, BX
	SUBQ $8, CX
	DECQ R14
	JNZ riGroup
	JMP riBlock

	// The general step, requantRowAVX2's, four columns at a time: an
	// argmax row's whole eights from the sums the block stored, the last
	// 1–7 columns from Y0's two halves, which never went to memory.
riGeneral:
	VPCMPEQD Y8, Y8, Y8
	VPBROADCASTQ requantConst<>+40(SB), Y9
	SHLQ $1, R14
	CMPQ CX, $8
	JGE riHalf
	XORQ R15, R15
riHalf:
	MOVQ CX, R13
	CMPQ R13, $4
	JGE riTerms
	VMOVQ R13, X1
	VPBROADCASTQ X1, Y1
	VPCMPGTQ laneNumbers<>(SB), Y1, Y8
riTerms:
	TESTQ R15, R15
	JZ riSums
	VMOVDQU (R15)(BX*4), X0
riSums:
	VCVTDQ2PD X0, Y4
	VMASKMOVPD (SI)(BX*8), Y8, Y1
	VMULPD Y1, Y4, Y4
	TESTQ R8, R8
	JZ riRes
	VMASKMOVPD (R8)(BX*8), Y8, Y1
	VADDPD Y1, Y4, Y4
riRes:
	TESTQ R9, R9
	JZ riReLU
	CMPQ R13, $4
	JLT riResBytes
	VPMOVSXBD (R9)(BX*1), X1
	JMP riResTerm
riResBytes:
	VPXOR X1, X1, X1
	VPINSRB $0, (R9)(BX*1), X1, X1
	CMPQ R13, $2
	JLT riResWiden
	VPINSRB $1, 1(R9)(BX*1), X1, X1
	JEQ riResWiden
	VPINSRB $2, 2(R9)(BX*1), X1, X1
riResWiden:
	VPMOVSXBD X1, X1
riResTerm:
	VCVTDQ2PD X1, Y1
	VMASKMOVPD (R11)(BX*8), Y8, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y4, Y4
riReLU:
	TESTQ $const_rangeReLU, DX
	JZ riArgmax
	VMAXPD Y15, Y4, Y4
riArgmax:
	TESTQ $const_rangeArgmax, DX
	JZ riScales
	VCMPPD $0x1e, Y7, Y4, Y1
	VANDPD Y8, Y1, Y1
	VBLENDVPD Y1, Y4, Y7, Y7
	VBLENDVPD Y1, Y5, Y6, Y6
	VPADDQ Y9, Y5, Y5
riScales:
	VMASKMOVPD (R12)(BX*8), Y8, Y3
	QUANT(Y4, Y3, Y1, X1, Y2)
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	CMPQ R13, $4
	JLT riBytes
	VMOVD X1, (DI)(BX*1)
	ADDQ $4, BX
	SUBQ $4, CX
	JZ riRowDone
	VEXTRACTI128 $1, Y0, X0
	DECQ R14
	JNZ riHalf
	JMP riBlock
riBytes:
	VPEXTRB $0, X1, (DI)(BX*1)
	CMPQ R13, $2
	JLT riRowDone
	VPEXTRB $1, X1, 1(DI)(BX*1)
	JEQ riRowDone
	VPEXTRB $2, X1, 2(DI)(BX*1)

riRowDone:
	MOVQ rangeI8_state(AX), DX
	TESTQ $const_rangeLast, DX
	JNZ riRowLast
	// A bare window is summed: the row's next continues it.
	ORQ $const_rangeCont, DX
	TESTQ $const_rangeDense, DX
	JZ riSparseNext
	MOVQ DX, rangeI8_state(AX)
	JMP riDenseWindow
riSparseNext:
	MOVQ rangeI8_at(AX), R11
	MOVQ rangeI8_rowEnd(AX), R9
	JMP riSparseWindow

riRowLast:
	// The row is written. Its four lanes' argmax candidates fold into
	// lane 0, which holds its label.
	TESTQ $const_rangeArgmax, DX
	JZ riNextRow
	VEXTRACTF128 $1, Y7, X0
	VEXTRACTI128 $1, Y6, X5
	FOLD(Y0, Y5)
	VPERMILPD $1, X7, X0
	VPSHUFD $0xee, X6, X5
	FOLD(Y0, Y5)
	MOVQ rangeI8_labels(AX), DI
	VMOVQ X6, (DI)
	ADDQ $8, DI
	MOVQ DI, rangeI8_labels(AX)
riNextRow:
	MOVQ rangeI8_p(AX), R10
	ADDQ R10, rangeI8_dst(AX)
	MOVQ rangeI8_res(AX), R9
	TESTQ R9, R9
	JZ riNextInput
	ADDQ R10, R9
	MOVQ R9, rangeI8_res(AX)
riNextInput:
	DECQ rangeI8_rows(AX)
	JZ riOut
	TESTQ $const_rangeDense, DX
	JZ riSparseRow
	MOVQ rangeI8_n(AX), R9
	ADDQ R9, rangeI8_a(AX)
	JMP riDenseRow
riOut:
	VZEROUPPER
	RET
