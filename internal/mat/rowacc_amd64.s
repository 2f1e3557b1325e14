//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 product kernel, fp64 — see the contract at the top of axpy.go (the
// row contract, then its range clause). Every fp64 output row of the
// codebase is computed by the one routine below, productRangeF64AVX2: a
// range call walks rows lo…hi of a sparse or a dense product without
// returning to Go between them, and the row door
// (CheckedEpilogue.ProductRow) is the same routine handed one row. Its
// int8 counterpart, productRangeI8AVX2, is in requant_amd64.s.
//
// It walks the output row in column blocks and, per block, holds the
// block in YMM accumulators across every term t, so out is read at most
// once and written once per block, and finishes the block there — bias
// add, residual add, ReLU, in that order — before its single store.
// Register use:
//
//	R14 the argument block (rangeF64, rowacc_amd64.go)
//	DI  out cursor: rows are contiguous, so it runs on from row to row
//	R13 residual − out in bytes: the residual block is (DI)(R13*1)
//	R10 row stride of out, src, bias and residual in bytes
//	R15 sparse: the row's entry in RowPtr    dense: the input-row cursor
//	row:   SI alpha    R8 idx    R9 n    AX flags (rangeCont … rangeLast)
//	block: DX src + block offset    BX bias + block offset    CX columns left
//	       R11 t    R12 row t
//	Y0–Y7 accumulators    Y8 alpha[t] broadcast    Y9–Y15 products
//
// Between rows SI, R8, R9, R11, R12, BX, CX and DX are free: the
// look-ahead prologue borrows R8 (hint cursor), R9 (hints left), SI (bytes
// hinted per row), R12 (line) and R11 (end of the hinted bytes); the dense
// compaction borrows all of them and AX (see it).
//
// The routine does not return between rows, so the upper halves of the
// YMM registers stay dirty from its first row to its VZEROUPPER: every
// vector instruction in it must be VEX-encoded. One legacy-SSE MOVQ into
// an XMM register per dense row — what the per-row compaction routine got
// away with, entered on clean state each time — doubled the dense
// product's time on the build host; it is VMOVQ here.

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

// laneIota: the lane offsets 0,1,2,3 of a four-quadword step, and the
// step width 4.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
GLOBL laneIota<>(SB), RODATA|NOPTR, $40

// TERMF64 points R12 at this block's slice of row idx[t] and broadcasts
// alpha[t].
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

// The epilogue steps of four columns, the accumulator always the first
// source so that it is the operand a two-NaN add answers with, as the
// portable `drow[j] += v` has it. RELUF64 is VMAXPD with +0 (Y9) as the
// SECOND source (Go operand order puts it first): the instruction answers
// its second source when the first is NaN and when both are zeros, so
// NaN → +0, −0 → +0, negatives → +0, and anything above zero, +Inf
// included, stays — reluF64's table (fused.go has the proof).
#define BIASF64(off, acc) \
	VADDPD off(BX), acc, acc

#define RESF64(off, acc) \
	VADDPD off(DI)(R13*1), acc, acc

#define RELUF64(acc) \
	VMAXPD Y9, acc, acc

// EPIF64 branches past the epilogue of a block when none of its steps is
// asked for; EPISTEP past one step.
#define EPIF64(store) \
	TESTQ $(const_rangeBias|const_rangeRes|const_rangeReLU), AX \
	JZ store

#define EPISTEP(bit, next) \
	TESTQ $bit, AX \
	JZ next

// func productRangeF64AVX2(a *rangeF64)
// Computes a.rows output rows of a.p ≥ 1 columns. Everything the routine
// reads unchecked was proved by its Go callers before the call (axpy.go,
// the range clause): the row pointers non-negative, non-decreasing and
// inside val/col through the look-ahead rows, every col[k]·p+p and every
// dense position·p+p within src, bias p long, the residual rows·p long.
// The look-ahead indices are hints: read, never validated, and the rows
// they name never dereferenced.
TEXT ·productRangeF64AVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), R14
	MOVQ rangeF64_dst(R14), DI
	MOVQ rangeF64_p(R14), R10
	SHLQ $3, R10
	MOVQ rangeF64_res(R14), R13
	SUBQ DI, R13
	MOVQ rangeF64_a(R14), R15
	TESTQ $const_rangeDense, rangeF64_flags(R14)
	JNZ f64denseRow
	MOVQ rangeF64_rowPtr(R14), R15

f64sparseRow:
	// Look ahead, before the row's own registers are claimed: touch the
	// leading lines (aheadRowBytes at most — the hardware streamer has
	// the rest of a longer row) of every source row the hint row names,
	// so those misses overlap this row's arithmetic instead of stalling
	// the row that needs them. PREFETCHT0 never faults, so an index
	// naming no row of src costs nothing but the hint. Whether the range
	// is hinted at all was decided once, by the caller: an unhinted one
	// arrives with unhinted = rows.
	MOVQ rangeF64_rows(R14), R11
	CMPQ R11, rangeF64_unhinted(R14)
	JLE f64sparseTerms
	MOVQ rangeF64_aheadOff(R14), R12
	MOVQ (R15)(R12*1), R8
	MOVQ 8(R15)(R12*1), R9
	SUBQ R8, R9
	JZ f64sparseTerms
	MOVQ rangeF64_hint(R14), R11
	LEAQ (R11)(R8*8), R8
	MOVQ rangeF64_src(R14), DX
	MOVQ $const_aheadRowBytes, SI
	CMPQ R10, SI
	CMOVQLT R10, SI
f64ahead:
	MOVQ (R8), R12
	IMULQ R10, R12
	ADDQ DX, R12
	LEAQ (R12)(SI*1), R11
	ANDQ $-64, R12
f64aheadline:
	PREFETCHT0 (R12)
	ADDQ $64, R12
	CMPQ R12, R11
	JLT f64aheadline
	ADDQ $8, R8
	DECQ R9
	JNZ f64ahead

f64sparseTerms:
	// The row's multipliers and indices are the CSR's own, from the
	// row's position on.
	MOVQ (R15), R11
	MOVQ 8(R15), R9
	SUBQ R11, R9
	MOVQ rangeF64_val(R14), SI
	LEAQ (SI)(R11*8), SI
	MOVQ rangeF64_col(R14), R8
	LEAQ (R8)(R11*8), R8
	ADDQ $8, R15
	MOVQ rangeF64_flags(R14), AX

f64row:
	// One output row (or, dense, one window's share of it): n terms at
	// SI/R8 under the flags in AX. No term and no sum to continue clears
	// the block; the epilogue follows either way.
	MOVQ rangeF64_src(R14), DX
	MOVQ rangeF64_bias(R14), BX
	MOVQ rangeF64_p(R14), CX

f64blk32:
	CMPQ CX, $32
	JLT f64blk16
	XORQ R11, R11
	TESTQ $const_rangeCont, AX
	JNZ f64load32
	TESTQ R9, R9
	JZ f64zero32
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
f64zero32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP f64epi32
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
f64epi32:
	EPIF64(f64store32)
	EPISTEP(const_rangeBias, f64res32)
	BIASF64(0, Y0)
	BIASF64(32, Y1)
	BIASF64(64, Y2)
	BIASF64(96, Y3)
	BIASF64(128, Y4)
	BIASF64(160, Y5)
	BIASF64(192, Y6)
	BIASF64(224, Y7)
f64res32:
	EPISTEP(const_rangeRes, f64relu32)
	RESF64(0, Y0)
	RESF64(32, Y1)
	RESF64(64, Y2)
	RESF64(96, Y3)
	RESF64(128, Y4)
	RESF64(160, Y5)
	RESF64(192, Y6)
	RESF64(224, Y7)
f64relu32:
	EPISTEP(const_rangeReLU, f64store32)
	VXORPD Y9, Y9, Y9
	RELUF64(Y0)
	RELUF64(Y1)
	RELUF64(Y2)
	RELUF64(Y3)
	RELUF64(Y4)
	RELUF64(Y5)
	RELUF64(Y6)
	RELUF64(Y7)
f64store32:
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
	ADDQ $256, BX
	SUBQ $32, CX
	JMP f64blk32

f64blk16:
	CMPQ CX, $16
	JLT f64blk8
	XORQ R11, R11
	TESTQ $const_rangeCont, AX
	JNZ f64load16
	TESTQ R9, R9
	JZ f64zero16
	TERMF64
	MULF64(0, Y0)
	MULF64(32, Y1)
	MULF64(64, Y2)
	MULF64(96, Y3)
	INCQ R11
	JMP f64test16
f64zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP f64epi16
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
f64epi16:
	EPIF64(f64store16)
	EPISTEP(const_rangeBias, f64res16)
	BIASF64(0, Y0)
	BIASF64(32, Y1)
	BIASF64(64, Y2)
	BIASF64(96, Y3)
f64res16:
	EPISTEP(const_rangeRes, f64relu16)
	RESF64(0, Y0)
	RESF64(32, Y1)
	RESF64(64, Y2)
	RESF64(96, Y3)
f64relu16:
	EPISTEP(const_rangeReLU, f64store16)
	VXORPD Y9, Y9, Y9
	RELUF64(Y0)
	RELUF64(Y1)
	RELUF64(Y2)
	RELUF64(Y3)
f64store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $128, BX
	SUBQ $16, CX

f64blk8:
	CMPQ CX, $8
	JLT f64blk4
	XORQ R11, R11
	TESTQ $const_rangeCont, AX
	JNZ f64load8
	TESTQ R9, R9
	JZ f64zero8
	TERMF64
	MULF64(0, Y0)
	MULF64(32, Y1)
	INCQ R11
	JMP f64test8
f64zero8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP f64epi8
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
f64epi8:
	EPIF64(f64store8)
	EPISTEP(const_rangeBias, f64res8)
	BIASF64(0, Y0)
	BIASF64(32, Y1)
f64res8:
	EPISTEP(const_rangeRes, f64relu8)
	RESF64(0, Y0)
	RESF64(32, Y1)
f64relu8:
	EPISTEP(const_rangeReLU, f64store8)
	VXORPD Y9, Y9, Y9
	RELUF64(Y0)
	RELUF64(Y1)
f64store8:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ $64, BX
	SUBQ $8, CX

f64blk4:
	CMPQ CX, $4
	JLT f64tail
	XORQ R11, R11
	TESTQ $const_rangeCont, AX
	JNZ f64load4
	TESTQ R9, R9
	JZ f64zero4
	TERMF64
	MULF64(0, Y0)
	INCQ R11
	JMP f64test4
f64zero4:
	VXORPD Y0, Y0, Y0
	JMP f64epi4
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
f64epi4:
	EPIF64(f64store4)
	EPISTEP(const_rangeBias, f64res4)
	BIASF64(0, Y0)
f64res4:
	EPISTEP(const_rangeRes, f64relu4)
	RESF64(0, Y0)
f64relu4:
	EPISTEP(const_rangeReLU, f64store4)
	VXORPD Y9, Y9, Y9
	RELUF64(Y0)
f64store4:
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $4, CX

f64tail:
	// One to three columns left: the same block under a lane mask —
	// row, bias and residual alike — so no byte beyond any operand is
	// read, and none beyond the row written.
	TESTQ CX, CX
	JZ f64rowDone
	LEAQ tailMask<>+32(SB), R12
	SHLQ $3, CX
	SUBQ CX, R12
	VMOVDQU (R12), Y15
	XORQ R11, R11
	TESTQ $const_rangeCont, AX
	JNZ f64loadtail
	TESTQ R9, R9
	JZ f64zerotail
	TERMF64
	VMASKMOVPD (R12), Y15, Y0
	VMULPD Y0, Y8, Y0
	INCQ R11
	JMP f64testtail
f64zerotail:
	VXORPD Y0, Y0, Y0
	JMP f64epitail
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
f64epitail:
	EPIF64(f64storetail)
	EPISTEP(const_rangeBias, f64restail)
	VMASKMOVPD (BX), Y15, Y9
	VADDPD Y9, Y0, Y0
f64restail:
	EPISTEP(const_rangeRes, f64relutail)
	VMASKMOVPD (DI)(R13*1), Y15, Y9
	VADDPD Y9, Y0, Y0
f64relutail:
	EPISTEP(const_rangeReLU, f64storetail)
	VXORPD Y9, Y9, Y9
	RELUF64(Y0)
f64storetail:
	// Plain stores, not a masked one: a dense row's next window reads
	// these elements straight back, and a masked store does not forward.
	// CX holds the tail's bytes, which is also how far the cursor moves.
	CMPQ CX, $16
	JLT f64store1
	VMOVUPD X0, (DI)
	JEQ f64tailDone
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, 16(DI)
	JMP f64tailDone
f64store1:
	VMOVSD X0, (DI)
f64tailDone:
	ADDQ CX, DI

f64rowDone:
	TESTQ $const_rangeDense, AX
	JNZ f64denseNext
	DECQ rangeF64_rows(R14)
	JNZ f64sparseRow
	VZEROUPPER
	RET

f64denseRow:
	// A dense product's row i is the row contract over the non-zero
	// entries of input row i: their values the multipliers, their
	// positions the indices — in [0, n) by construction, n·p ≤ len(src)
	// proved by the caller. The input row is compacted a window of
	// RowChunk entries at a time into the caller's ab/ib; every window
	// but the last accumulates bare onto the row (its first bare, the
	// rest continuing — a window of zeros is skipped), the last carries
	// the epilogue. state is the row's flags: rangeCont joins them with
	// the first window that leaves a sum in the row.
	MOVQ $0, rangeF64_k(R14)
	MOVQ rangeF64_flags(R14), AX
	MOVQ AX, rangeF64_state(R14)

f64denseWindow:
	// Compact the window: four entries a step, compare against zero, take
	// the four-bit lane mask, and let that mask's row of ·packLUT (VPERMD
	// indices moving the selected quadwords to the front) pack values and
	// positions alike. Each step stores a full vector at the cursor and
	// advances it by the mask's population count; the cursor never passes
	// the read position, so the stores stay inside the RowChunk entries
	// of ab and ib.
	//
	//	R15 input cursor    CX entries left    BX position in the row
	//	R8 ab    R9 ib    AX cursor    R11 ·packLUT    R12, DX scratch
	//	Y5 position of the four lanes    Y6 fours    Y7 zero
	MOVQ rangeF64_k(R14), BX
	MOVQ rangeF64_n(R14), CX
	SUBQ BX, CX
	MOVQ $const_RowChunk, R11
	CMPQ CX, R11
	CMOVQGT R11, CX
	MOVQ rangeF64_ab(R14), R8
	MOVQ rangeF64_ib(R14), R9
	XORQ AX, AX
	VMOVQ BX, X5
	VPBROADCASTQ X5, Y5
	VPADDQ laneIota<>(SB), Y5, Y5
	VPBROADCASTQ laneIota<>+32(SB), Y6
	VXORPD Y7, Y7, Y7
	LEAQ ·packLUT(SB), R11
	JMP f64compactTest4
f64compact4:
	VMOVUPD (R15), Y0
	VCMPPD $4, Y7, Y0, Y1 // NEQ_UQ: anything but ±0, NaN included
	VMOVMSKPD Y1, R12
	MOVQ R12, DX
	SHLQ $5, DX
	VMOVDQU (R11)(DX*1), Y2
	VPERMD Y0, Y2, Y3
	VMOVUPD Y3, (R8)(AX*8)
	VPERMD Y5, Y2, Y4
	VMOVDQU Y4, (R9)(AX*8)
	VPADDQ Y6, Y5, Y5
	POPCNTQ R12, R12
	ADDQ R12, AX
	ADDQ $32, R15
	ADDQ $4, BX
	SUBQ $4, CX
f64compactTest4:
	CMPQ CX, $4
	JGE f64compact4
	JMP f64compactTest1
f64compact1:
	MOVQ (R15), R12
	MOVQ R12, (R8)(AX*8)
	MOVQ BX, (R9)(AX*8)
	SHLQ $1, R12 // drop the sign: ±0 becomes 0
	NEGQ R12     // carry set unless zero
	ADCQ $0, AX
	ADDQ $8, R15
	INCQ BX
	DECQ CX
f64compactTest1:
	TESTQ CX, CX
	JNZ f64compact1

	MOVQ BX, rangeF64_k(R14)
	MOVQ AX, R9
	MOVQ rangeF64_state(R14), AX
	CMPQ BX, rangeF64_n(R14)
	JEQ f64denseLast
	TESTQ R9, R9
	JZ f64denseWindow
	MOVQ AX, DX
	ORQ $const_rangeCont, DX
	MOVQ DX, rangeF64_state(R14)
	ANDQ $~(const_rangeBias|const_rangeRes|const_rangeReLU), AX
	JMP f64denseTerms
f64denseLast:
	ORQ $const_rangeLast, AX
f64denseTerms:
	MOVQ R8, SI
	MOVQ rangeF64_ib(R14), R8
	JMP f64row

f64denseNext:
	TESTQ $const_rangeLast, AX
	JNZ f64denseRowDone
	SUBQ R10, DI
	JMP f64denseWindow
f64denseRowDone:
	DECQ rangeF64_rows(R14)
	JNZ f64denseRow
	VZEROUPPER
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
