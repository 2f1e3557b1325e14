//go:build !purego

#include "textflag.h"

// AVX2 requantise row — see the contract at the top of requant.go. Four
// columns a step while four are left, then one column a step with the
// same packed instructions on lane 0 (scalar loads clear lanes 1–3, and
// what those lanes compute is never stored). Absent operands are nil
// pointers, tested per step; the branches never change within a call.
//
//	DI  dst8     DX  dst32    CX  n        BX  column j
//	SI  acc      R8  deq      R9  bias     R10 res      R11 resScales
//	R12 scales (nil: Y3 holds the one scale for the whole call)
//	AX  argmax   R13 scratch
//	Y0  f, then scratch       Y1, Y2, Y4 scratch        Y3 scale[j]
//	Y5  column numbers of the lanes   Y6 best column   Y7 best f
//	Y8  all-ones without ReLU, zero with it   Y9 the step, 4 per lane
//	Y10 −127   Y11 127   Y12 1   Y13 ½   Y14 |x| mask   Y15 zero

DATA requantConst<>+0(SB)/8, $0x7fffffffffffffff // |x| mask
DATA requantConst<>+8(SB)/8, $0x3fe0000000000000 // ½
DATA requantConst<>+16(SB)/8, $0x3ff0000000000000 // 1
DATA requantConst<>+24(SB)/8, $0x405fc00000000000 // 127
DATA requantConst<>+32(SB)/8, $0xc05fc00000000000 // −127
DATA requantConst<>+40(SB)/8, $0xfff0000000000000 // −Inf
DATA requantConst<>+48(SB)/8, $4
GLOBL requantConst<>(SB), RODATA|NOPTR, $56

// laneNumbers: the columns 0,1,2,3 the four lanes start on.
DATA laneNumbers<>+0(SB)/8, $0
DATA laneNumbers<>+8(SB)/8, $1
DATA laneNumbers<>+16(SB)/8, $2
DATA laneNumbers<>+24(SB)/8, $3
GLOBL laneNumbers<>(SB), RODATA|NOPTR, $32

// RELU keeps f where f > 0 (or everywhere, when Y8 is all ones) and
// leaves +0 elsewhere, NaN included.
#define RELU \
	VCMPPD $0x1e, Y15, Y0, Y1 \
	VORPD Y8, Y1, Y1 \
	VANDPD Y1, Y0, Y0

// ARGMAX moves f and its column into the lanes where f > best (ordered:
// a NaN never wins, an equal value never replaces an earlier one).
#define ARGMAX \
	VCMPPD $0x1e, Y7, Y0, Y1 \
	VBLENDVPD Y1, Y0, Y7, Y7 \
	VBLENDVPD Y1, Y5, Y6, Y6

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

// QUANT turns f (Y0) under scale (Y3) into four int32 codes in X1:
// q = f/scale by a true divide; t = trunc(q), moved one away from zero
// where |q−t| ≥ ½ (exact below 2⁵², and q is integral from there on);
// clamped to ±127; zeroed where scale ≤ 0 or q is NaN.
#define QUANT \
	VDIVPD Y3, Y0, Y1 \
	VROUNDPD $0x0b, Y1, Y2 \
	VSUBPD Y2, Y1, Y4 \
	VANDPD Y14, Y4, Y4 \
	VCMPPD $0x1d, Y13, Y4, Y4 \
	VANDNPD Y1, Y14, Y0 \
	VORPD Y12, Y0, Y0 \
	VANDPD Y4, Y0, Y0 \
	VADDPD Y0, Y2, Y2 \
	VMINPD Y11, Y2, Y2 \
	VMAXPD Y10, Y2, Y2 \
	VCMPPD $0x1e, Y15, Y3, Y0 \
	VCMPPD $0x07, Y1, Y1, Y4 \
	VANDPD Y4, Y0, Y0 \
	VANDPD Y0, Y2, Y2 \
	VCVTTPD2DQY Y2, X1

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
	MOVBQZX relu+80(FP), R13
	MOVBQZX argmax+81(FP), AX
	VBROADCASTSD requantConst<>+0(SB), Y14
	VBROADCASTSD requantConst<>+8(SB), Y13
	VBROADCASTSD requantConst<>+16(SB), Y12
	VBROADCASTSD requantConst<>+24(SB), Y11
	VBROADCASTSD requantConst<>+32(SB), Y10
	VBROADCASTSD requantConst<>+40(SB), Y7
	VPBROADCASTQ requantConst<>+48(SB), Y9
	VMOVDQU laneNumbers<>(SB), Y5
	VMOVDQA Y5, Y6
	VXORPD Y15, Y15, Y15
	VXORPD Y8, Y8, Y8
	TESTQ R13, R13
	JNZ start
	VPCMPEQD Y8, Y8, Y8
start:
	XORQ BX, BX

loop4:
	LEAQ 4(BX), R13
	CMPQ R13, CX
	JGT fold
	TESTQ SI, SI
	JZ noacc4
	VCVTDQ2PD (SI)(BX*4), Y0
	VMULPD (R8)(BX*8), Y0, Y0
	TESTQ R9, R9
	JZ res4
	VADDPD (R9)(BX*8), Y0, Y0
	JMP res4
noacc4:
	TESTQ R9, R9
	JZ resonly4
	VMOVUPD (R9)(BX*8), Y0
res4:
	TESTQ R10, R10
	JZ f4
	VPMOVSXBD (R10)(BX*1), X1
	VCVTDQ2PD X1, Y1
	VMULPD (R11)(BX*8), Y1, Y1
	VADDPD Y1, Y0, Y0
	JMP f4
resonly4:
	VPMOVSXBD (R10)(BX*1), X0
	VCVTDQ2PD X0, Y0
	VMULPD (R11)(BX*8), Y0, Y0
f4:
	RELU
	TESTQ AX, AX
	JZ scale4
	ARGMAX
	VPADDQ Y9, Y5, Y5
scale4:
	TESTQ R12, R12
	JZ quant4
	VMOVUPD (R12)(BX*8), Y3
quant4:
	QUANT
	TESTQ DX, DX
	JZ narrow4
	VMOVDQU X1, (DX)(BX*4)
	JMP next4
narrow4:
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	VMOVD X1, (DI)(BX*1)
next4:
	MOVQ R13, BX
	JMP loop4

	// Before the tail the four lanes' candidates fold into lane 0, the
	// only lane the tail's columns and the answer are read from.
fold:
	TESTQ AX, AX
	JZ loop1
	VEXTRACTF128 $1, Y7, X0
	VEXTRACTI128 $1, Y6, X5
	FOLD(Y0, Y5)
	VPERMILPD $1, X7, X0
	VPSHUFD $0xee, X6, X5
	FOLD(Y0, Y5)

loop1:
	CMPQ BX, CX
	JGE done
	TESTQ SI, SI
	JZ noacc1
	VMOVD (SI)(BX*4), X0
	VCVTDQ2PD X0, Y0
	VMOVSD (R8)(BX*8), X1
	VMULPD Y1, Y0, Y0
	TESTQ R9, R9
	JZ res1
	VMOVSD (R9)(BX*8), X1
	VADDPD Y1, Y0, Y0
	JMP res1
noacc1:
	TESTQ R9, R9
	JZ resonly1
	VMOVSD (R9)(BX*8), X0
res1:
	TESTQ R10, R10
	JZ f1
	MOVBLSX (R10)(BX*1), R13
	VMOVD R13, X1
	VCVTDQ2PD X1, Y1
	VMOVSD (R11)(BX*8), X2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	JMP f1
resonly1:
	MOVBLSX (R10)(BX*1), R13
	VMOVD R13, X0
	VCVTDQ2PD X0, Y0
	VMOVSD (R11)(BX*8), X2
	VMULPD Y2, Y0, Y0
f1:
	RELU
	TESTQ AX, AX
	JZ scale1
	VMOVQ BX, X5
	ARGMAX
scale1:
	TESTQ R12, R12
	JZ quant1
	VMOVSD (R12)(BX*8), X3
quant1:
	QUANT
	TESTQ DX, DX
	JZ narrow1
	VMOVD X1, (DX)(BX*4)
	JMP next1
narrow1:
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	VPEXTRB $0, X1, (DI)(BX*1)
next1:
	INCQ BX
	JMP loop1

done:
	XORQ BX, BX
	TESTQ AX, AX
	JZ out
	VMOVQ X6, BX
out:
	VZEROUPPER
	MOVQ BX, ret+88(FP)
	RET
