//go:build !purego

#include "textflag.h"

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
// ReLU is VMAXPD with +0 as the second source — see RELU8: the operand
// order is the rule.
//
// Two loops. The accumulator forms the product epilogues run — acc·deq,
// with or without bias, with or without ReLU, per-column scales, narrow
// codes, no argmax — are dispatched once per call to one of four loops
// that take eight columns a step as two four-lane chains sharing no
// register, so two divides are in flight, and test nothing inside.
// Everything else goes through the general step: four columns under lane
// masks, the operand tests inside it. It serves the fast forms' last
// n mod 8 columns, every row with a residual, a plain float64 source, one
// scale for the row, wide codes or the argmax — and every row narrower
// than eight, where it is a single step: the 3-wide logits rows are one
// masked divide instead of three serial ones. Masked loads
// (VPMASKMOVD/VMASKMOVPD) read nothing past column n, the 1–3 residual
// bytes of a last step are inserted one by one, and the last step stores
// exactly n mod 4 codes.
//
// Measured on the build host (Xeon Sapphire Rapids VM 2.1 GHz, shared and
// noisy, GOMAXPROCS 1; BenchmarkRequantizeRow acc+bias+relu, ns per row,
// previous kernel → this one over ten alternating rounds, median and in
// brackets the least disturbed round): 3 columns 30.8 (24.7) → 24.6
// (21.4), 16 columns 28.4 (23.5) → 25.7 (20.7), 32 columns 49.2 (41.8) →
// 39.5 (30.5), 128 columns 188 (157) → 114 (88). The divider's own
// throughput, four columns every eight cycles, is 30 ns for 32 columns,
// so an undisturbed wide row now waits for the divide and nothing else;
// a narrow one is ≈ 20 ns of call and wrapper cost around one divide. In
// the int8 ECALL of the bench's pubmed20k plan the kernel fell from 39 %
// of 12.4 ms to 31 % of 10.8 ms.
//
//	DI  dst8     DX  dst32    CX  n        BX  column j
//	SI  acc      R8  deq      R9  bias     R10 res      R11 resScales
//	R12 scales (nil: Y3 holds the one scale for the whole call)
//	R14 relu     AX  argmax   R13 columns left / scratch   R15 scratch
//	Y10 −127   Y11 127   Y13 pred(½)   Y14 sign bit   Y15 zero
//	fast loops:   Y0–Y3 the low chain (f, q, t, scale), Y4–Y7 the high one
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

// The eight-column step of the fast forms: columns BX…BX+3 in Y0 and
// BX+4…BX+7 in Y4, two chains with no register in common so that both
// divides are in flight at once.
#define ACC8 \
	VCVTDQ2PD (SI)(BX*4), Y0 \
	VCVTDQ2PD 16(SI)(BX*4), Y4 \
	VMULPD (R8)(BX*8), Y0, Y0 \
	VMULPD 32(R8)(BX*8), Y4, Y4

#define BIAS8 \
	VADDPD (R9)(BX*8), Y0, Y0 \
	VADDPD 32(R9)(BX*8), Y4, Y4

// ReLU is one maximum with +0 as the SECOND source (Go operand order puts
// it first): the instruction answers its second source when f is NaN and
// when both are zeros, so NaN → +0 and −0 → +0, and f > 0 stays f.
#define RELU8 \
	VMAXPD Y15, Y0, Y0 \
	VMAXPD Y15, Y4, Y4

#define QUANT8 \
	VMOVUPD (R12)(BX*8), Y3 \
	VMOVUPD 32(R12)(BX*8), Y7 \
	QUANT(Y0, Y3, Y1, X1, Y2) \
	QUANT(Y4, Y7, Y5, X5, Y6) \
	VPACKSSDW X5, X1, X1 \
	VPACKSSWB X1, X1, X1 \
	VMOVQ X1, (DI)(BX*1)

// FAST8 heads each fast loop: leave for the general step when fewer than
// eight columns are left.
#define FAST8 \
	LEAQ 8(BX), R13 \
	CMPQ R13, CX \
	JGT general

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

	// The operand dispatch, once per call: the accumulator forms of the
	// product epilogues go through a loop of their own.
	TESTQ SI, SI
	JZ general
	TESTQ R12, R12
	JZ general
	MOVQ R10, R13
	ORQ DX, R13
	ORQ AX, R13
	JNZ general
	TESTQ R9, R9
	JZ noBias
	TESTQ R14, R14
	JZ accBias

accBiasReLU:
	FAST8
	ACC8
	BIAS8
	RELU8
	QUANT8
	MOVQ R13, BX
	JMP accBiasReLU

accBias:
	FAST8
	ACC8
	BIAS8
	QUANT8
	MOVQ R13, BX
	JMP accBias

noBias:
	TESTQ R14, R14
	JZ accOnly

accReLU:
	FAST8
	ACC8
	RELU8
	QUANT8
	MOVQ R13, BX
	JMP accReLU

accOnly:
	FAST8
	ACC8
	QUANT8
	MOVQ R13, BX
	JMP accOnly

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
