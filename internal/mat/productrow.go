package mat

import "fmt"

// The int8 product row. Every output row of an int8 product — the dense
// product (MatMulI8EpilogueInto), the sparse product
// (graph.MulDenseI8EpilogueRangeInto) and the attention aggregate — is
// the two kernel contracts back to back: a row accumulate (axpy.go) into
// exact int32 sums, then a requantise row (requant.go) of those sums.
// ProductRow is that composition as one call, and the one door the three
// drivers' rows go through. It adds no contract of its own: see the
// composition clauses in axpy.go and requant.go for what an
// implementation may and may not do.

// CheckedEpilogueI8 is the requantise operands of one int8 product op,
// proved to cover the product's column count: the accumulator's
// dequantisation scales, the optional float64 bias, the optional residual
// scales, the destination scales, and the ReLU and wide-argmax flags.
// Only CheckEpilogueI8 mints one, once per op range and before the
// range's first row is written — what CheckedIndices is to a range's
// column indices — so the row entry, which reads these operands
// unchecked, cannot be reached with a short one. The value aliases the
// caller's slices, which must not change while it is in use.
type CheckedEpilogueI8 struct {
	cols                            int
	deq, bias, resScales, dstScales []float64
	relu, argmax                    bool
}

// CheckEpilogueI8 proves the epilogue operands of an int8 product of cols
// columns: deq and dstScales exactly cols long, bias and resScales
// likewise or nil for a product without that term (non-nil resScales is
// what says the rows carry a residual). relu and argmax select the ReLU
// and the wide argmax of the requantise row. It panics on the first
// operand that does not fit — before the caller has written anything.
func CheckEpilogueI8(cols int, deq, bias, resScales, dstScales []float64, relu, argmax bool) CheckedEpilogueI8 {
	if cols < 0 || len(deq) != cols || len(dstScales) != cols ||
		(bias != nil && len(bias) != cols) || (resScales != nil && len(resScales) != cols) {
		panic(fmt.Sprintf("mat: int8 product epilogue of %d columns over operands of other lengths (deq %d, bias %d, resScales %d, dstScales %d)",
			cols, len(deq), len(bias), len(resScales), len(dstScales)))
	}
	return CheckedEpilogueI8{cols, deq, bias, resScales, dstScales, relu, argmax}
}

// ProductRow computes one output row of an int8 product into dst:
//
//	sums = (cont ? acc : 0) + Σₜ alpha[t] · src[idx[t]·cols : idx[t]·cols+cols]
//	dst  = requantise(sums, e's operands, res)
//
// that is, RowAccumulateI8(acc, alpha, idx, src, cont) followed by
// RequantizeRow(dst, acc, …) under e, and returns the wide argmax (0
// unless e asks for it). A row whose multipliers do not fit one call —
// more than a RowChunk window of compacted codes, a refill of the SpMM's
// value codes — runs all but its last stretch through RowAccumulateI8
// into acc and hands the last to ProductRow with cont set. acc is the
// caller's int32 scratch row: read when cont is set, and left in an
// unspecified state. res is the row's residual codes, present exactly
// when e was checked with residual scales; dst may be that same row. What
// is validated here is constant work per row — the row slices are cols
// long, one index per multiplier, the source holds the rows the indices
// were proved against — everything per column was proved when e and idx
// were minted.
func (e *CheckedEpilogueI8) ProductRow(dst []int8, acc, alpha []int32, idx CheckedIndices, src, res []int8, cont bool) int {
	p := e.cols
	if len(dst) != p || len(acc) < p || len(res) != len(e.resScales) || len(idx.idx) != len(alpha) || idx.rows*p > len(src) {
		panic(fmt.Sprintf("mat: int8 product row of %d columns: dst %d, acc %d, res %d for %d residual scales, %d multipliers for %d indices, %d rows of source in %d elements",
			p, len(dst), len(acc), len(res), len(e.resScales), len(alpha), len(idx.idx), idx.rows, len(src)))
	}
	if p == 0 {
		return 0
	}
	if e.resScales == nil {
		res = nil
	}
	return productRowI8(e, dst, acc[:p], alpha, idx, src, res, cont)
}

// productRowI8Go is the portable product row — literally the requantise
// row after the row accumulate — the whole of the purego build and the
// oracle the assembly entry is held to. Like that entry it takes operands
// its caller has validated and at least one column.
func productRowI8Go(e *CheckedEpilogueI8, dst []int8, acc, alpha []int32, idx []int, src, res []int8, cont bool) int {
	switch {
	case len(alpha) > 0:
		rowAccI8Go(acc, alpha, idx, src, cont)
	case !cont:
		clear(acc)
	}
	return requantRowGo(dst, nil, e.cols, acc, e.deq, e.bias, res, e.resScales, e.dstScales, 0, e.relu, e.argmax)
}
