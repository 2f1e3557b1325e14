package mat

import "fmt"

// The int8 product rows. Every output row of an int8 product — the dense
// product (MatMulI8EpilogueInto), the sparse product
// (graph.MulDenseI8EpilogueRangeInto) and the attention aggregate — is
// the two kernel contracts back to back: a row accumulate (axpy.go) into
// exact int32 sums, then a requantise row (requant.go) of those sums. Each
// crosses into the kernel once per op range — SparseRange here, the dense
// range under MatMulI8EpilogueInto — or, for attention, whose multipliers
// are computed, once per batch of a span it proved whole (CheckedCSR.Batch).
// None of them adds a contract of its own: see the int8 range clause in
// axpy.go and the composition clause in requant.go for what an
// implementation may and may not do.

// CheckedEpilogueI8 is the requantise operands of one int8 product op,
// proved to cover the product's column count: the accumulator's
// dequantisation scales, the optional float64 bias, the optional residual
// scales, the destination scales, and the ReLU and wide-argmax flags.
// Only CheckEpilogueI8 mints one, once per op range and before the
// range's first row is written — what CheckCSR is to a range's column
// indices — so the range entries, which read these operands unchecked,
// cannot be reached with a short one. The value
// aliases the caller's slices, which must not change while it is in use.
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

// requireRows panics unless dst is rows whole rows of the product, res
// the residual codes of exactly those rows (present exactly when e was
// checked with residual scales), acc a row of sums and src the srcRows
// source rows the indices were proved against — the storage a range
// reads and writes unchecked, proved before its first row. It returns
// res and acc cut to what the kernel uses.
func (e *CheckedEpilogueI8) requireRows(dst []int8, rows int, res []int8, acc []int32, src []int8, srcRows int) ([]int8, []int32) {
	p := e.cols
	wantRes := 0
	if e.resScales != nil {
		wantRes = rows * p
	}
	if len(dst) != rows*p || len(res) != wantRes || len(acc) < p || srcRows*p > len(src) {
		panic(fmt.Sprintf("mat: %d int8 product rows of %d columns: dst %d, res %d for %d residual scales, acc %d, %d rows of source in %d elements",
			rows, p, len(dst), len(res), len(e.resScales), len(acc), srcRows, len(src)))
	}
	if e.resScales == nil {
		res = nil
	}
	return res, acc[:p]
}

// SparseRange computes the rows of c — its float64 values quantised under
// valScale, each as QuantizeI8 defines — times the e.cols-wide rows of
// src into dst, len(dst) = rows·cols, each requantised under e: the int8
// range clause of the row contract (axpy.go), one kernel call for all of
// them. res is the rows' residual codes, present exactly when e was
// checked with residual scales (dst may be the same rows); acc the
// caller's int32 scratch row; labels receives each row's wide argmax when
// e asks for it. Everything per element was proved when c and e were
// minted; what is checked here — that dst, res, acc, labels and src hold
// what the rows read and write — is constant work.
func (e *CheckedEpilogueI8) SparseRange(dst []int8, c *CheckedCSR, valScale float64, src, res []int8, acc []int32, labels []int) {
	res, acc = e.requireRows(dst, c.rows, res, acc, src, c.srcRows)
	if !e.argmax {
		labels = nil
	} else if len(labels) < c.rows {
		panic(fmt.Sprintf("mat: %d int8 product rows with %d labels", c.rows, len(labels)))
	}
	if len(dst) > 0 {
		sparseRangeI8(e, dst, c, valScale, src, res, acc, labels)
	}
}

// productRowI8Go, sparseRangeI8Go and denseRangeI8Go are the portable
// product row and ranges — the whole of the purego build, and the oracle
// the assembly is held to: literally the Go loop of QuantizeI8 per
// multiplier, rowAccI8Go a RowChunk window at a time, then requantRowGo,
// per row. Like the assembly they take operands their callers have
// validated and at least one column.
func productRowI8Go(e *CheckedEpilogueI8, dst []int8, acc []int32, alpha []float64, scale float64, idx []int, src, res []int8) int {
	var codes [RowChunk]int32
	cont := false
	for k := 0; k < len(alpha); k += RowChunk {
		m := min(RowChunk, len(alpha)-k)
		for t, v := range alpha[k : k+m] {
			codes[t] = int32(QuantizeI8(v, scale))
		}
		rowAccI8Go(acc, codes[:m], idx[k:k+m], src, cont)
		cont = true
	}
	return e.requantGo(dst, acc, res, cont)
}

// requantGo finishes a row whose sums are in acc (cleared here when no
// window left any).
func (e *CheckedEpilogueI8) requantGo(dst []int8, acc []int32, res []int8, summed bool) int {
	if !summed {
		clear(acc)
	}
	return requantRowGo(dst, acc, e.deq, e.bias, res, e.resScales, e.dstScales, 0, e.relu, e.argmax)
}

// rowOf returns row i of the p-wide rows in m, or nil for no rows at all
// (an absent residual).
func rowOf(m []int8, i, p int) []int8 {
	if m == nil {
		return nil
	}
	return m[i*p : (i+1)*p]
}

func sparseRangeI8Go(e *CheckedEpilogueI8, dst []int8, c *CheckedCSR, valScale float64, src, res []int8, acc []int32, labels []int) {
	p := e.cols
	for i := 0; i < c.rows; i++ {
		at, end := c.rowPtr[i], c.rowPtr[i+1]
		am := productRowI8Go(e, dst[i*p:(i+1)*p], acc, c.val[at:end], valScale, c.col[at:end], src, rowOf(res, i, p))
		if labels != nil {
			labels[i] = am
		}
	}
}

func denseRangeI8Go(e *CheckedEpilogueI8, dst, a []int8, n int, w, res []int8, rows int, acc []int32, labels []int) {
	p := e.cols
	var ab [RowChunk]int32
	var ib [RowChunk]int
	for i := 0; i < rows; i++ {
		arow := a[i*n : (i+1)*n]
		cont := false
		for k0 := 0; k0 < n; k0 += RowChunk {
			if m := compactNonZeroI8Go(&ab, &ib, arow[k0:min(k0+RowChunk, n)], k0); m > 0 {
				rowAccI8Go(acc, ab[:m], ib[:m], w, cont)
				cont = true
			}
		}
		am := e.requantGo(dst[i*p:(i+1)*p], acc, rowOf(res, i, p), cont)
		if labels != nil {
			labels[i] = am
		}
	}
}
