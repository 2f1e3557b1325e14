// The int8 multiply-accumulate step of the row accumulate, shared by
// rowAccI8AVX2 (rowacc_amd64.s) and the product row (requant_amd64.s).
// Registers: R8 idx, R11 t, R10 the source's row stride in bytes, DX the
// source plus the column block's offset, SI alpha; R12 receives row t's
// slice and Y8 alpha[t].

// TERMI8 points R12 at this block's slice of row idx[t] and broadcasts
// alpha[t].
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
