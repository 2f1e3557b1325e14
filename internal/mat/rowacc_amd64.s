//go:build !purego

#include "go_asm.h"
#include "textflag.h"
#include "rowacc_amd64.h"

// AVX2 row-accumulate kernels — see the contract at the top of axpy.go.
// Both walk the output row in column blocks and, per block, hold the
// block in YMM accumulators across every term t, so out is read at most
// once and written once per call. Register use, shared by both kernels:
//
//	DI  out + block offset      SI  alpha        R8  idx       R9  n
//	DX  src + block offset      R10 src row stride in bytes
//	CX  columns left            AX  cont         R11 t         R12 row t
//	Y0–Y7 accumulators          Y8  alpha[t] broadcast         Y9–Y15 products
//
// The fp64 kernel's look-ahead prologue runs before out, alpha, idx and n
// are loaded and borrows R13 (hint cursor), BX (hints left), SI (bytes
// hinted per row), R12 (line) and R11 (end of the hinted bytes).

// tailMask: four all-ones quadwords, then four zero. Thirty-two bytes
// read r quadwords before the boundary select the first r lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// laneIota: the lane offsets 0,1,2,3 of a four-quadword step; the step
// width 4; and the VPERMD indices 0,2,4,6 that gather the low doublewords
// of four quadwords (the upper four indices are don't-cares).
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $0x0000000200000000
DATA laneIota<>+48(SB)/8, $0x0000000600000004
DATA laneIota<>+56(SB)/8, $0
DATA laneIota<>+64(SB)/8, $0
GLOBL laneIota<>(SB), RODATA|NOPTR, $72

// TERM points R12 at this block's slice of row idx[t] and broadcasts
// alpha[t] (TERMI8 and MACI8, which the product row shares, are in
// rowacc_amd64.h).
#define TERMF64 \
	MOVQ (R8)(R11*8), R12 \
	IMULQ R10, R12 \
	ADDQ DX, R12 \
	VBROADCASTSD (SI)(R11*8), Y8

// MULF64 is the bare product of four columns of row t with alpha[t].
// MACF64 adds that product to the accumulator as a separate, separately
// rounded operation (no FMA).
#define MULF64(off, dst) \
	VMULPD off(R12), Y8, dst

#define MACF64(off, tmp, acc) \
	MULF64(off, tmp) \
	VADDPD tmp, acc, acc

// func rowAccF64AVX2(out *float64, p int, alpha *float64, idx *int, n int, src *float64, ahead *int, nahead int, cont bool)
// Requires p ≥ 1, n ≥ 1 and every idx[t]·p+p within src. The nahead
// indices at ahead are the look-ahead clause: hints, read but never
// validated and the rows they name never dereferenced.
TEXT ·rowAccF64AVX2(SB), NOSPLIT, $0-65
	MOVQ p+8(FP), CX
	MOVQ src+40(FP), DX
	MOVQ CX, R10
	SHLQ $3, R10

	// Look ahead, before the row's own registers are claimed: touch the
	// leading lines (aheadRowBytes at most — the hardware streamer has
	// the rest of a longer row) of every source row the caller will
	// gather next, so those misses overlap this row's arithmetic instead
	// of stalling the row that needs them. PREFETCHT0 never faults, so an
	// index naming no row of src costs nothing but the hint.
	MOVQ ahead+48(FP), R13
	MOVQ nahead+56(FP), BX
	TESTQ BX, BX
	JZ f64args
	MOVQ $const_aheadRowBytes, SI
	CMPQ R10, SI
	CMOVQLT R10, SI
f64ahead:
	MOVQ (R13), R12
	IMULQ R10, R12
	ADDQ DX, R12
	LEAQ (R12)(SI*1), R11
	ANDQ $-64, R12
f64aheadline:
	PREFETCHT0 (R12)
	ADDQ $64, R12
	CMPQ R12, R11
	JLT f64aheadline
	ADDQ $8, R13
	DECQ BX
	JNZ f64ahead

f64args:
	MOVQ out+0(FP), DI
	MOVQ alpha+16(FP), SI
	MOVQ idx+24(FP), R8
	MOVQ n+32(FP), R9
	MOVBQZX cont+64(FP), AX

f64blk32:
	CMPQ CX, $32
	JLT f64blk16
	XORQ R11, R11
	TESTQ AX, AX
	JNZ f64load32
	TERMF64
	MULF64(0, Y0)
	MULF64(32, Y1)
	MULF64(64, Y2)
	MULF64(96, Y3)
	MULF64(128, Y4)
	MULF64(160, Y5)
	MULF64(192, Y6)
	MULF64(224, Y7)
	INCQ R11
	JMP f64test32
f64load32:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	JMP f64test32
f64loop32:
	TERMF64
	MACF64(0, Y9, Y0)
	MACF64(32, Y10, Y1)
	MACF64(64, Y11, Y2)
	MACF64(96, Y12, Y3)
	MACF64(128, Y13, Y4)
	MACF64(160, Y14, Y5)
	MACF64(192, Y15, Y6)
	MACF64(224, Y9, Y7)
	INCQ R11
f64test32:
	CMPQ R11, R9
	JLT f64loop32
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $32, CX
	JMP f64blk32

f64blk16:
	CMPQ CX, $16
	JLT f64blk8
	XORQ R11, R11
	TESTQ AX, AX
	JNZ f64load16
	TERMF64
	MULF64(0, Y0)
	MULF64(32, Y1)
	MULF64(64, Y2)
	MULF64(96, Y3)
	INCQ R11
	JMP f64test16
f64load16:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP f64test16
f64loop16:
	TERMF64
	MACF64(0, Y9, Y0)
	MACF64(32, Y10, Y1)
	MACF64(64, Y11, Y2)
	MACF64(96, Y12, Y3)
	INCQ R11
f64test16:
	CMPQ R11, R9
	JLT f64loop16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX

f64blk8:
	CMPQ CX, $8
	JLT f64blk4
	XORQ R11, R11
	TESTQ AX, AX
	JNZ f64load8
	TERMF64
	MULF64(0, Y0)
	MULF64(32, Y1)
	INCQ R11
	JMP f64test8
f64load8:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	JMP f64test8
f64loop8:
	TERMF64
	MACF64(0, Y9, Y0)
	MACF64(32, Y10, Y1)
	INCQ R11
f64test8:
	CMPQ R11, R9
	JLT f64loop8
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX

f64blk4:
	CMPQ CX, $4
	JLT f64tail
	XORQ R11, R11
	TESTQ AX, AX
	JNZ f64load4
	TERMF64
	MULF64(0, Y0)
	INCQ R11
	JMP f64test4
f64load4:
	VMOVUPD 0(DI), Y0
	JMP f64test4
f64loop4:
	TERMF64
	MACF64(0, Y9, Y0)
	INCQ R11
f64test4:
	CMPQ R11, R9
	JLT f64loop4
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX

f64tail:
	// One to three columns left: the same loop under a lane mask, so no
	// byte beyond the row is read or written.
	TESTQ CX, CX
	JZ f64done
	LEAQ tailMask<>+32(SB), R13
	SHLQ $3, CX
	SUBQ CX, R13
	VMOVDQU (R13), Y15
	XORQ R11, R11
	TESTQ AX, AX
	JNZ f64loadtail
	TERMF64
	VMASKMOVPD (R12), Y15, Y0
	VMULPD Y0, Y8, Y0
	INCQ R11
	JMP f64testtail
f64loadtail:
	VMASKMOVPD (DI), Y15, Y0
	JMP f64testtail
f64looptail:
	TERMF64
	VMASKMOVPD (R12), Y15, Y9
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ R11
f64testtail:
	CMPQ R11, R9
	JLT f64looptail
	// Plain stores, not a masked one: the caller's epilogue reads these
	// elements straight back, and a masked store does not forward.
	CMPQ CX, $16
	JLT f64store1
	VMOVUPD X0, (DI)
	JEQ f64done
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, 16(DI)
	JMP f64done
f64store1:
	VMOVSD X0, (DI)

f64done:
	VZEROUPPER
	RET

// func rowAccI8AVX2(out *int32, p int, alpha *int32, idx *int, n int, src *int8, cont bool)
// Handles the leading p&^7 columns; the caller finishes the last p&7.
// Integer accumulation is exact, so the accumulators start from zero (or
// from out when cont) rather than from a bare first product.
TEXT ·rowAccI8AVX2(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ p+8(FP), CX
	MOVQ alpha+16(FP), SI
	MOVQ idx+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ src+40(FP), DX
	MOVBQZX cont+48(FP), AX
	MOVQ CX, R10

i8blk64:
	CMPQ CX, $64
	JLT i8blk32
	TESTQ AX, AX
	JNZ i8load64
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	JMP i8start64
i8load64:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
i8start64:
	XORQ R11, R11
i8loop64:
	TERMI8
	MACI8(0, Y9, Y0)
	MACI8(8, Y10, Y1)
	MACI8(16, Y11, Y2)
	MACI8(24, Y12, Y3)
	MACI8(32, Y13, Y4)
	MACI8(40, Y14, Y5)
	MACI8(48, Y15, Y6)
	MACI8(56, Y9, Y7)
	INCQ R11
	CMPQ R11, R9
	JLT i8loop64
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $64, DX
	SUBQ $64, CX
	JMP i8blk64

i8blk32:
	CMPQ CX, $32
	JLT i8blk16
	TESTQ AX, AX
	JNZ i8load32
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	JMP i8start32
i8load32:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
i8start32:
	XORQ R11, R11
i8loop32:
	TERMI8
	MACI8(0, Y9, Y0)
	MACI8(8, Y10, Y1)
	MACI8(16, Y11, Y2)
	MACI8(24, Y12, Y3)
	INCQ R11
	CMPQ R11, R9
	JLT i8loop32
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $32, DX
	SUBQ $32, CX

i8blk16:
	CMPQ CX, $16
	JLT i8blk8
	TESTQ AX, AX
	JNZ i8load16
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	JMP i8start16
i8load16:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
i8start16:
	XORQ R11, R11
i8loop16:
	TERMI8
	MACI8(0, Y9, Y0)
	MACI8(8, Y10, Y1)
	INCQ R11
	CMPQ R11, R9
	JLT i8loop16
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $16, DX
	SUBQ $16, CX

i8blk8:
	CMPQ CX, $8
	JLT i8done
	TESTQ AX, AX
	JNZ i8load8
	VPXOR Y0, Y0, Y0
	JMP i8start8
i8load8:
	VMOVDQU 0(DI), Y0
i8start8:
	XORQ R11, R11
i8loop8:
	TERMI8
	MACI8(0, Y9, Y0)
	INCQ R11
	CMPQ R11, R9
	JLT i8loop8
	VMOVDQU Y0, 0(DI)

i8done:
	VZEROUPPER
	RET

// The compaction kernels copy the non-zero entries of src[0:n] to the
// front of ab and base plus their positions to ib, four entries a step:
// compare against zero, take the four-bit lane mask, and let that mask's
// row of ·packLUT (VPERMD indices moving the selected quadwords to the
// front) pack values and positions alike. Each step stores a full vector
// at the cursor and advances it by the mask's population count; the
// cursor never passes the read position, so the stores stay inside
// buffers of n entries.
//
//	DI ab    BX ib    SI src    CX n    AX cursor    DX position
//	Y5 base + position of the four lanes    Y6 fours    Y7 zero

// func compactF64AVX2(ab *float64, ib *int, src *float64, n, base int) int
TEXT ·compactF64AVX2(SB), NOSPLIT, $0-48
	MOVQ ab+0(FP), DI
	MOVQ ib+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ base+32(FP), R8
	XORQ AX, AX
	XORQ DX, DX
	MOVQ R8, X5
	VPBROADCASTQ X5, Y5
	VPADDQ laneIota<>(SB), Y5, Y5
	VPBROADCASTQ laneIota<>+32(SB), Y6
	VXORPD Y7, Y7, Y7
	LEAQ ·packLUT(SB), R9
	MOVQ CX, R11
	ANDQ $-4, R11
	JMP cf64test4
cf64loop4:
	VMOVUPD (SI)(DX*8), Y0
	VCMPPD $4, Y7, Y0, Y1 // NEQ_UQ: anything but ±0, NaN included
	VMOVMSKPD Y1, R12
	MOVQ R12, R13
	SHLQ $5, R13
	VMOVDQU (R9)(R13*1), Y2
	VPERMD Y0, Y2, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VPERMD Y5, Y2, Y4
	VMOVDQU Y4, (BX)(AX*8)
	VPADDQ Y6, Y5, Y5
	POPCNTQ R12, R12
	ADDQ R12, AX
	ADDQ $4, DX
cf64test4:
	CMPQ DX, R11
	JLT cf64loop4
	ADDQ DX, R8
	JMP cf64test1
cf64loop1:
	MOVQ (SI)(DX*8), R12
	MOVQ R12, (DI)(AX*8)
	MOVQ R8, (BX)(AX*8)
	SHLQ $1, R12 // drop the sign: ±0 becomes 0
	NEGQ R12     // carry set unless zero
	ADCQ $0, AX
	INCQ DX
	INCQ R8
cf64test1:
	CMPQ DX, CX
	JLT cf64loop1
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func compactI8AVX2(ab *int32, ib *int, src *int8, n, base int) int
// Codes are widened to quadwords to share the packing table, then
// narrowed to the kernel's int32 multipliers as they are stored.
TEXT ·compactI8AVX2(SB), NOSPLIT, $0-48
	MOVQ ab+0(FP), DI
	MOVQ ib+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ base+32(FP), R8
	XORQ AX, AX
	XORQ DX, DX
	MOVQ R8, X5
	VPBROADCASTQ X5, Y5
	VPADDQ laneIota<>(SB), Y5, Y5
	VPBROADCASTQ laneIota<>+32(SB), Y6
	VPXOR Y7, Y7, Y7
	VMOVDQU laneIota<>+40(SB), Y8
	LEAQ ·packLUT(SB), R9
	MOVQ CX, R11
	ANDQ $-4, R11
	JMP ci8test4
ci8loop4:
	VPMOVSXBQ (SI)(DX*1), Y0
	VPCMPEQQ Y7, Y0, Y1
	VMOVMSKPD Y1, R12
	XORQ $15, R12
	MOVQ R12, R13
	SHLQ $5, R13
	VMOVDQU (R9)(R13*1), Y2
	VPERMD Y0, Y2, Y3
	VPERMD Y3, Y8, Y3
	VMOVDQU X3, (DI)(AX*4)
	VPERMD Y5, Y2, Y4
	VMOVDQU Y4, (BX)(AX*8)
	VPADDQ Y6, Y5, Y5
	POPCNTQ R12, R12
	ADDQ R12, AX
	ADDQ $4, DX
ci8test4:
	CMPQ DX, R11
	JLT ci8loop4
	ADDQ DX, R8
	JMP ci8test1
ci8loop1:
	MOVBQSX (SI)(DX*1), R12
	MOVL R12, (DI)(AX*4)
	MOVQ R8, (BX)(AX*8)
	NEGQ R12 // carry set unless zero
	ADCQ $0, AX
	INCQ DX
	INCQ R8
ci8test1:
	CMPQ DX, CX
	JLT ci8loop1
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
