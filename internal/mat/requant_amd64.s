//go:build !purego

#include "go_asm.h"
#include "textflag.h"
#include "rowacc_amd64.h"

// AVX2 requantise row — see the contract at the top of requant.go; this
// file changes how few instructions carry it out, not one operation of it.
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
// Two routines. requantRowAVX2 is the general step alone: four columns
// under lane masks, the operand tests inside it, for everything
// RequantizeRow and the single-scale forms are called with — a plain
// float64 source (the boundary quantiser), residual codes (the standalone
// element-wise ops), one scale for the row, wide codes, the argmax.
// Masked loads (VPMASKMOVD/VMASKMOVPD) read nothing past column n, the
// 1–3 residual bytes of a last step are inserted one by one, and the last
// step stores exactly n mod 4 codes. The product epilogues' accumulator
// forms do not come here any more: productRowI8AVX2, below, sums the row
// and requantises it in one call — eight columns a step as two four-lane
// chains sharing no register, so two divides are in flight, and this
// same general step for a row's last 1–7 columns and for the argmax. The
// per-form eight-column loops PR 20 gave this routine went with their
// last caller.
//
// Measured on the build host (Xeon Sapphire Rapids VM 2.1 GHz, shared and
// noisy, GOMAXPROCS 1): the divider's own throughput, four columns every
// eight cycles, is 30 ns for 32 columns, so a wide row waits for the
// divide and the vector ports around it; a narrow one is call cost around
// one masked divide. Per-row figures for the product row are in
// DESIGN.md, "Precision-tiered plans".
//
//	DI  dst8     DX  dst32    CX  n        BX  column j
//	SI  acc      R8  deq      R9  bias     R10 res      R11 resScales
//	R12 scales (nil: Y3 holds the one scale for the whole call)
//	R14 relu     AX  argmax   R13 columns left / scratch   R15 scratch
//	Y10 −127   Y11 127   Y13 pred(½)   Y14 sign bit   Y15 zero
//	general step: Y0 f   Y1, Y2, Y4 scratch   Y3 scale[j]
//	              Y5 column numbers of the lanes   Y6 best column   Y7 best f
//	              Y8 lane mask, quadwords   X12 lane mask, doublewords
//	              Y9 the step, 4 per lane

DATA requantConst<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA requantConst<>+8(SB)/8, $0x3fdfffffffffffff // pred(½) = ½ − 2⁻⁵⁴
DATA requantConst<>+16(SB)/8, $0x405fc00000000000 // 127
DATA requantConst<>+24(SB)/8, $0xc05fc00000000000 // −127
DATA requantConst<>+32(SB)/8, $0xfff0000000000000 // −Inf
DATA requantConst<>+40(SB)/8, $4
GLOBL requantConst<>(SB), RODATA|NOPTR, $48

// laneNumbers: the columns 0,1,2,3 the four lanes start on, as the
// quadwords the argmax carries and as the doublewords the int32 tail
// mask is compared from.
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

// func requantRowAVX2(dst8 *int8, dst32 *int32, n int, acc *int32, deq, bias *float64, res *int8, resScales, scales *float64, scale float64, relu, argmax bool) int
// Requires n ≥ 1, one of dst8/dst32, one of acc/bias/res, deq with acc,
// resScales with res, and every present operand n long.
TEXT ·requantRowAVX2(SB), NOSPLIT, $0-96
	MOVQ dst8+0(FP), DI
	MOVQ dst32+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ acc+24(FP), SI
	MOVQ deq+32(FP), R8
	MOVQ bias+40(FP), R9
	MOVQ res+48(FP), R10
	MOVQ resScales+56(FP), R11
	MOVQ scales+64(FP), R12
	VBROADCASTSD scale+72(FP), Y3
	MOVBQZX relu+80(FP), R14
	MOVBQZX argmax+81(FP), AX
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
	VBROADCASTSD requantConst<>+32(SB), Y7
	VPBROADCASTQ requantConst<>+40(SB), Y9
	VMOVDQU laneNumbers<>(SB), Y5
	VMOVDQA Y5, Y6

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
	JZ argmax
	VMAXPD Y15, Y0, Y0

	// f and its column move into the live lanes where f > best (ordered:
	// a NaN never wins, an equal value never replaces an earlier one).
argmax:
	TESTQ AX, AX
	JZ scales
	VCMPPD $0x1e, Y7, Y0, Y1
	VANDPD Y8, Y1, Y1
	VBLENDVPD Y1, Y0, Y7, Y7
	VBLENDVPD Y1, Y5, Y6, Y6
	VPADDQ Y9, Y5, Y5
scales:
	TESTQ R12, R12
	JZ quant
	VMASKMOVPD (R12)(BX*8), Y8, Y3
quant:
	QUANT(Y0, Y3, Y1, X1, Y2)
	TESTQ DX, DX
	JZ narrow
	VPMASKMOVD X1, X12, (DX)(BX*4)
	JMP next
narrow:
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

	// The four lanes' candidates fold into lane 0, which holds the answer.
done:
	XORQ BX, BX
	TESTQ AX, AX
	JZ out
	VEXTRACTF128 $1, Y7, X0
	VEXTRACTI128 $1, Y6, X5
	FOLD(Y0, Y5)
	VPERMILPD $1, X7, X0
	VPSHUFD $0xee, X6, X5
	FOLD(Y0, Y5)
	VMOVQ X6, BX
out:
	VZEROUPPER
	MOVQ BX, ret+88(FP)
	RET

// The int8 product row: rowAccI8AVX2's multiply-accumulate and the
// requantise above as one routine — see the composition clauses in
// axpy.go and requant.go. The row is walked in column blocks; per block
// the int32 sums are built in Y0–Y7 across every term and requantised
// before the next block starts.
//
// Blocks. 64, 32, 16 and 8 columns — eight, four, two, one accumulators
// of eight — while that many columns are left; then one block of the last
// 1–7 columns.
//
// Where the sums go. The last 1–7 columns are requantised out of Y0 —
// the general step of requantRowAVX2, four columns under a lane mask, fed
// from the accumulator's halves instead of memory: a row narrower than
// eight (the 3-wide logits) never touches acc unless it continues a
// longer one. Blocks of whole eights store their sums to acc and convert
// them from there: VCVTDQ2PD from
// memory is one shuffle cheaper than from a register half, and on a row
// this wide the vector ports, not the store-to-load hop, are what the
// row waits for (measured, 32 columns × 6 terms, bare accumulator: sums
// kept in registers 43 ns a row against 39 for the two unfused calls;
// stored and reloaded, 38).
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
// argmax in three more registers.
//
//	AX  e       BX column    CX columns left    R10 p
//	multiply-accumulate:
//	SI  alpha   R8  idx   R9  n   DX  src + column   R11 t   R12 row t
//	DI  acc + 4·column    R13 cont   R14 last   R15 bytes to shift out
//	Y0–Y7 accumulators (Y0–Y3 below 64 columns)   Y8 alpha[t]   Y4, Y9, Y12 scratch
//	requantise:
//	DI  dst   SI  deq   R8  bias   R9  res   R11 resScales   R12 dstScales
//	DX  relu, argmax << 1     R14 eights (general step: fours) left in the block
//	R13 columns in this step  R15 acc, or 0 where the sums are in Y0
//	Y10 −127   Y11 127   Y13 pred(½)   Y14 sign bit   Y15 zero
//	eight columns: Y4, Y5 f   Y12, Y0 scales   Y6–Y9 scratch
//	general step:  Y4 f   Y1, Y2 scratch   Y3 scale   Y8 lane mask   Y9 the step
//	               Y5 column numbers of the lanes   Y6 best column   Y7 best f

// laneNumbers32x8: the lanes 0…7 of an eight-doubleword step, for the
// mask a continued row's last 1–7 sums are loaded under.
DATA laneNumbers32x8<>+0(SB)/4, $0
DATA laneNumbers32x8<>+4(SB)/4, $1
DATA laneNumbers32x8<>+8(SB)/4, $2
DATA laneNumbers32x8<>+12(SB)/4, $3
DATA laneNumbers32x8<>+16(SB)/4, $4
DATA laneNumbers32x8<>+20(SB)/4, $5
DATA laneNumbers32x8<>+24(SB)/4, $6
DATA laneNumbers32x8<>+28(SB)/4, $7
GLOBL laneNumbers32x8<>(SB), RODATA|NOPTR, $32

// func productRowI8AVX2(e *CheckedEpilogueI8, dst *int8, acc, alpha *int32, idx *int, n int, src, last, res *int8, cont bool) int
// Requires e.cols ≥ 1, dst and acc e.cols long, res nil or e.cols long,
// every idx[t] a row of src, and last = src + rows·cols − 8 whenever cols
// is not a multiple of eight and n > 0.
TEXT ·productRowI8AVX2(SB), NOSPLIT, $0-88
	MOVQ e+0(FP), AX
	MOVQ CheckedEpilogueI8_cols(AX), CX
	MOVQ CX, R10
	XORQ BX, BX
	VBROADCASTSD requantConst<>+0(SB), Y14
	VBROADCASTSD requantConst<>+8(SB), Y13
	VBROADCASTSD requantConst<>+16(SB), Y11
	VBROADCASTSD requantConst<>+24(SB), Y10
	VXORPD Y15, Y15, Y15
	// The argmax state: the multiply-accumulate of the blocks an argmax
	// row takes keeps to Y4, Y9 and Y12 for its products, so it survives
	// them.
	VBROADCASTSD requantConst<>+32(SB), Y7
	VMOVDQU laneNumbers<>(SB), Y5
	VMOVDQA Y5, Y6

prBlock:
	TESTQ CX, CX
	JZ prDone
	MOVQ alpha+24(FP), SI
	MOVQ idx+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ src+48(FP), DX
	ADDQ BX, DX
	MOVQ acc+16(FP), DI
	LEAQ (DI)(BX*4), DI
	MOVBQZX cont+72(FP), R13
	XORQ R11, R11
	CMPQ CX, $8
	JLT prTail
	CMPQ CX, $64
	JGE prBlock64
prNarrower:
	CMPQ CX, $32
	JGE prBlock32
	CMPQ CX, $16
	JGE prBlock16

prBlock8:
	MOVQ $1, R14
	VPXOR Y0, Y0, Y0
	TESTQ R13, R13
	JZ prTest8
	VMOVDQU 0(DI), Y0
	JMP prTest8
prLoop8:
	TERMI8
	MACI8(0, Y4, Y0)
	INCQ R11
prTest8:
	CMPQ R11, R9
	JLT prLoop8
	VMOVDQU Y0, 0(DI)
	JMP prRequant

prBlock16:
	MOVQ $2, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	TESTQ R13, R13
	JZ prTest16
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	JMP prTest16
prLoop16:
	TERMI8
	MACI8(0, Y4, Y0)
	MACI8(8, Y9, Y1)
	INCQ R11
prTest16:
	CMPQ R11, R9
	JLT prLoop16
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	JMP prRequant

prBlock32:
	MOVQ $4, R14
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ R13, R13
	JZ prTest32
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	JMP prTest32
prLoop32:
	TERMI8
	MACI8(0, Y4, Y0)
	MACI8(8, Y9, Y1)
	MACI8(16, Y12, Y2)
	MACI8(24, Y4, Y3)
	INCQ R11
prTest32:
	CMPQ R11, R9
	JLT prLoop32
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	JMP prRequant

	// Sixty-four columns take Y4–Y7 too, where an argmax row keeps its
	// candidates: such a row stays with the narrower blocks.
prBlock64:
	CMPB CheckedEpilogueI8_argmax(AX), $0
	JNE prNarrower
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
	JZ prTest64
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	JMP prTest64
prLoop64:
	TERMI8
	MACI8(0, Y9, Y0)
	MACI8(8, Y12, Y1)
	MACI8(16, Y9, Y2)
	MACI8(24, Y12, Y3)
	MACI8(32, Y9, Y4)
	MACI8(40, Y12, Y5)
	MACI8(48, Y9, Y6)
	MACI8(56, Y12, Y7)
	INCQ R11
prTest64:
	CMPQ R11, R9
	JLT prLoop64
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	JMP prRequant

	// The last 1–7 columns: the sums so far under a doubleword lane mask,
	// each term's bytes by the clamped load.
prTail:
	VPXOR Y0, Y0, Y0
	TESTQ R13, R13
	JZ prTailTerms
	VMOVQ CX, X4
	VPBROADCASTD X4, Y4
	VPCMPGTD laneNumbers32x8<>(SB), Y4, Y12
	VPMASKMOVD (DI), Y12, Y0
prTailTerms:
	MOVQ last+56(FP), R14
	JMP prTestTail
prLoopTail:
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
prTestTail:
	CMPQ R11, R9
	JLT prLoopTail
	MOVQ $1, R14

prRequant:
	MOVQ dst+8(FP), DI
	MOVQ CheckedEpilogueI8_deq(AX), SI
	MOVQ CheckedEpilogueI8_bias(AX), R8
	MOVQ res+64(FP), R9
	MOVQ CheckedEpilogueI8_resScales(AX), R11
	MOVQ CheckedEpilogueI8_dstScales(AX), R12
	MOVBQZX CheckedEpilogueI8_argmax(AX), DX
	SHLQ $1, DX
	MOVBQZX CheckedEpilogueI8_relu(AX), R13
	ORQ R13, DX
	MOVQ acc+16(FP), R15

prGroup:
	CMPQ CX, $8
	JLT prGeneral
	TESTQ $2, DX
	JNZ prGeneral

	// Eight columns of the sums the block stored.
	VCVTDQ2PD (R15)(BX*4), Y4
	VCVTDQ2PD 16(R15)(BX*4), Y5
	VMULPD (SI)(BX*8), Y4, Y4
	VMULPD 32(SI)(BX*8), Y5, Y5
	TESTQ R8, R8
	JZ prRes8
	VADDPD (R8)(BX*8), Y4, Y4
	VADDPD 32(R8)(BX*8), Y5, Y5
prRes8:
	TESTQ R9, R9
	JZ prReLU8
	VPMOVSXBD (R9)(BX*1), Y6
	VCVTDQ2PD X6, Y7
	VEXTRACTI128 $1, Y6, X6
	VCVTDQ2PD X6, Y6
	VMULPD (R11)(BX*8), Y7, Y7
	VMULPD 32(R11)(BX*8), Y6, Y6
	VADDPD Y7, Y4, Y4
	VADDPD Y6, Y5, Y5
prReLU8:
	TESTQ $1, DX
	JZ prQuant8
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
prQuant8:
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
	JNZ prGroup
	JMP prBlock

	// The general step, requantRowAVX2's, four columns at a time: an
	// argmax row's whole eights from the sums the block stored, the last
	// 1–7 columns from Y0's two halves, which never went to memory.
prGeneral:
	VPCMPEQD Y8, Y8, Y8
	VPBROADCASTQ requantConst<>+40(SB), Y9
	SHLQ $1, R14
	CMPQ CX, $8
	JGE prHalf
	XORQ R15, R15
prHalf:
	MOVQ CX, R13
	CMPQ R13, $4
	JGE prTerms
	VMOVQ R13, X1
	VPBROADCASTQ X1, Y1
	VPCMPGTQ laneNumbers<>(SB), Y1, Y8
prTerms:
	TESTQ R15, R15
	JZ prSums
	VMOVDQU (R15)(BX*4), X0
prSums:
	VCVTDQ2PD X0, Y4
	VMASKMOVPD (SI)(BX*8), Y8, Y1
	VMULPD Y1, Y4, Y4
	TESTQ R8, R8
	JZ prRes
	VMASKMOVPD (R8)(BX*8), Y8, Y1
	VADDPD Y1, Y4, Y4
prRes:
	TESTQ R9, R9
	JZ prReLU
	CMPQ R13, $4
	JLT prResBytes
	VPMOVSXBD (R9)(BX*1), X1
	JMP prResTerm
prResBytes:
	VPXOR X1, X1, X1
	VPINSRB $0, (R9)(BX*1), X1, X1
	CMPQ R13, $2
	JLT prResWiden
	VPINSRB $1, 1(R9)(BX*1), X1, X1
	JEQ prResWiden
	VPINSRB $2, 2(R9)(BX*1), X1, X1
prResWiden:
	VPMOVSXBD X1, X1
prResTerm:
	VCVTDQ2PD X1, Y1
	VMASKMOVPD (R11)(BX*8), Y8, Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y4, Y4
prReLU:
	TESTQ $1, DX
	JZ prArgmax
	VMAXPD Y15, Y4, Y4
prArgmax:
	TESTQ $2, DX
	JZ prScales
	VCMPPD $0x1e, Y7, Y4, Y1
	VANDPD Y8, Y1, Y1
	VBLENDVPD Y1, Y4, Y7, Y7
	VBLENDVPD Y1, Y5, Y6, Y6
	VPADDQ Y9, Y5, Y5
prScales:
	VMASKMOVPD (R12)(BX*8), Y8, Y3
	QUANT(Y4, Y3, Y1, X1, Y2)
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	CMPQ R13, $4
	JLT prBytes
	VMOVD X1, (DI)(BX*1)
	ADDQ $4, BX
	SUBQ $4, CX
	JZ prDone
	VEXTRACTI128 $1, Y0, X0
	DECQ R14
	JNZ prHalf
	JMP prBlock
prBytes:
	VPEXTRB $0, X1, (DI)(BX*1)
	CMPQ R13, $2
	JLT prDone
	VPEXTRB $1, X1, 1(DI)(BX*1)
	JEQ prDone
	VPEXTRB $2, X1, 2(DI)(BX*1)

	// The four lanes' argmax candidates fold into lane 0.
prDone:
	XORQ BX, BX
	CMPB CheckedEpilogueI8_argmax(AX), $0
	JE prOut
	VEXTRACTF128 $1, Y7, X0
	VEXTRACTI128 $1, Y6, X5
	FOLD(Y0, Y5)
	VPERMILPD $1, X7, X0
	VPSHUFD $0xee, X6, X5
	FOLD(Y0, Y5)
	VMOVQ X6, BX
prOut:
	VZEROUPPER
	MOVQ BX, ret+80(FP)
	RET

