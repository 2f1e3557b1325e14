package mat

import (
	"fmt"
	"math"
)

// Every int8 code in this codebase — the fused product epilogues, the
// boundary quantisation of incoming activations, the per-run SpMM edge
// values, the weight preparation and the standalone element-wise ops —
// is produced under one contract, the requantise row. Per column j of
// the output row:
//
//	f[j]    = float64(acc[j])·deq[j]  + bias[j]  + float64(res[j])·resScales[j]
//	f[j]    = f[j] > 0 ? f[j] : +0                         (with ReLU)
//	code[j] = clamp±127(roundHalfAway(f[j] / scale[j]))    (0 when scale[j] ≤ 0 or the quotient is NaN)
//
// Each of the three terms of f is optional and f starts from the first
// one present (a plain float64 source is a row passed as bias with
// nothing else); every step is its own IEEE operation on float64 — a
// true divide, never a multiply by a reciprocal, never a fused
// multiply-add. The wide argmax, where asked for, is taken over f after
// the ReLU and before the divide: first maximum wins, a NaN never does,
// and a row with nothing above −Inf answers 0.
//
// Like the row accumulate (axpy.go) the contract has exactly two
// implementations: AVX2 assembly on amd64 (requant_amd64.s — four columns
// a step under lane masks here, eight a step inside the product range —
// chosen by the same useAVX2 flag) and requantRowGo below — the fallback
// everywhere else, the whole of the purego build and the oracle of
// TestRequantizeRowDifferential. Both
// perform the same operations on the same operands per element, so every
// code and every label agree; and since each is a function of one
// column's exact int32 accumulator, tiled == direct at int8 needs no
// further argument.
//
// Composition. The product epilogues do not call RequantizeRow: an int8
// product's rows are the row accumulate (axpy.go) and this contract, row
// after row, in one kernel call per op range — CheckedEpilogueI8.SparseRange,
// the dense range under MatMulI8EpilogueInto, and the row door
// CheckedEpilogueI8.ProductRow for the attention aggregate (productrow.go;
// axpy.go has the int8 range clause in full — the two contracts back to
// back, nothing reordered, the portable form literally requantRowGo ∘
// rowAccI8Go per row). The operands this contract reads per column — deq,
// bias, resScales, the destination scales — reach those entries as a
// CheckedEpilogueI8, proved against the column count once per op range by
// CheckEpilogueI8 instead of once per row here. The same clause covers
// the multipliers: a CSR value or an attention coefficient becomes its
// int8 code inside the range call by this contract's last line under one
// scale — QuantizeI8 per value. RequantizeRow remains the door for
// everything that is not a product's last step: the boundary quantiser
// and the standalone element-wise ops.

// QuantizeI8 maps the real value v to its nearest int8 code under
// symmetric scale (round half away from zero, clamped to ±127). A
// non-positive scale quantizes everything to 0, and so does a NaN
// quotient (a NaN value, 0/0-style ±Inf/Inf, or a NaN scale).
func QuantizeI8(v, scale float64) int8 {
	if scale <= 0 {
		return 0
	}
	q := math.Round(v / scale)
	switch {
	case q != q:
		return 0
	case q > 127:
		return 127
	case q < -127:
		return -127
	}
	return int8(q)
}

// RequantizeRow computes one requantise row into dst (see the contract
// above): acc with its per-column dequantisation scales deq, the float64
// addend bias, and the residual codes res with their per-column scales
// resScales are each optional (nil), at least one of them present;
// dstScales are dst's per-column scales. It returns the wide argmax when
// argmax is set and 0 otherwise. dst may be the same row as res. Every
// operand is checked to cover len(dst) columns before either
// implementation runs.
func RequantizeRow(dst []int8, acc []int32, deq, bias []float64, res []int8, resScales, dstScales []float64, relu, argmax bool) int {
	if dstScales == nil && len(dst) > 0 {
		panic("mat: requantise row without destination scales")
	}
	return requantRowChecked(dst, acc, deq, bias, res, resScales, dstScales, 0, relu, argmax)
}

// requantRowChecked is the one door to both implementations: scales nil
// means the single scale quantises every column. It validates that each
// present operand covers the row — the assembly reads and writes
// unchecked — and skips the empty row.
func requantRowChecked(dst []int8, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu, argmax bool) int {
	n := len(dst)
	if n == 0 {
		return 0
	}
	if acc == nil && bias == nil && res == nil {
		panic("mat: requantise row without a source term")
	}
	if (acc != nil && (len(acc) < n || len(deq) < n)) || (bias != nil && len(bias) < n) ||
		(res != nil && (len(res) < n || len(resScales) < n)) || (scales != nil && len(scales) < n) {
		panic(fmt.Sprintf("mat: requantise row of %d columns over shorter operands (acc %d, deq %d, bias %d, res %d, resScales %d, scales %d)",
			n, len(acc), len(deq), len(bias), len(res), len(resScales), len(scales)))
	}
	return requantRow(dst, acc, deq, bias, res, resScales, scales, scale, relu, argmax)
}

// requantRowGo is the portable requantise row, one column at a time
// through QuantizeI8. Like the assembly it stands in for, it takes
// operands the caller has validated.
func requantRowGo(dst []int8, acc []int32, deq, bias []float64, res []int8, resScales, scales []float64, scale float64, relu, argmax bool) int {
	am, best := 0, math.Inf(-1)
	for j := range dst {
		// The explicit conversions round each product on its own, which
		// keeps a compiler that may fuse from fusing it into the add.
		var f float64
		started := false
		if acc != nil {
			f, started = float64(float64(acc[j])*deq[j]), true
		}
		if bias != nil {
			if started {
				f += bias[j]
			} else {
				f, started = bias[j], true
			}
		}
		if res != nil {
			r := float64(float64(res[j]) * resScales[j])
			if started {
				f += r
			} else {
				f = r
			}
		}
		if relu && !(f > 0) {
			f = 0
		}
		if argmax && f > best {
			best, am = f, j
		}
		if scales != nil {
			scale = scales[j]
		}
		dst[j] = QuantizeI8(f, scale)
	}
	return am
}
