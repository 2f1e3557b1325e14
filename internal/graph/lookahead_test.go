package graph

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// raggedCSR hand-builds an n×cols operator whose rows run from empty to a
// dozen non-zeros — an empty first row, empty rows scattered through and
// one among the last few, where the look-ahead window slides off the end
// of the CSR. cols ≠ n makes it rectangular, as a partition shard is.
func raggedCSR(rng *rand.Rand, n, cols int) *NormAdjacency {
	na := &NormAdjacency{N: n, RowPtr: make([]int, n+1)}
	if cols != n {
		na.NCols = cols
	}
	for i := 0; i < n; i++ {
		nnz := rng.Intn(13)
		if i == 0 || i == n-2 || rng.Intn(9) == 0 {
			nnz = 0
		}
		for k := 0; k < nnz; k++ {
			na.ColIdx = append(na.ColIdx, rng.Intn(cols))
			na.Val = append(na.Val, rng.NormFloat64())
		}
		na.RowPtr[i+1] = len(na.ColIdx)
	}
	return na
}

// TestSpMMLookAheadChangesNoBit holds every SpMM driver — the full-height
// product serial and banded, the range forms over ragged ranges, with and
// without an epilogue, on a square CSR and on a rectangular shard CSR — to
// a loop of plain row accumulates that never look ahead. The sources are
// over 1 MiB, so on AVX2 hosts the drivers' hints are really issued; the
// bits must not know.
func TestSpMMLookAheadChangesNoBit(t *testing.T) {
	const d = 48
	rng := rand.New(rand.NewSource(31))
	bias := benchDense(1, d).Data
	for _, shape := range []struct {
		name    string
		n, cols int
	}{{"square", 3000, 3000}, {"shard", 2600, 3100}} {
		na := raggedCSR(rng, shape.n, shape.cols)
		if na.ColCount() != shape.cols {
			t.Fatalf("%s: ColCount %d, want %d", shape.name, na.ColCount(), shape.cols)
		}
		h := benchDense(shape.cols, d)
		res := benchDense(shape.n, d)

		plain := mat.New(shape.n, d)
		fused := mat.New(shape.n, d)
		bare := mat.CheckEpilogue(shape.n, d, nil, nil, false)
		for i := 0; i < shape.n; i++ {
			p, e := na.RowPtr[i], na.RowPtr[i+1]
			row := plain.Data[i*d : (i+1)*d]
			row[0] = 7 // an empty row must be cleared, not skipped
			bare.ProductRow(row, na.Val[p:e], mat.CheckIndices(na.ColIdx[p:e], h.Rows), h.Data, i, nil)
			frow := fused.Data[i*d : (i+1)*d]
			copy(frow, row)
			mat.ApplyEpilogueRow(frow, bias, res.Data[i*d:(i+1)*d], true)
		}
		same := func(what string, got, want *mat.Matrix, lo int) {
			t.Helper()
			for k, v := range got.Data {
				if w := want.Data[lo*d+k]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s %s: row %d col %d = %x, row-accumulate loop %x", shape.name, what, lo+k/d, k%d, math.Float64bits(v), math.Float64bits(w))
				}
			}
		}

		for _, workers := range []int{1, 3} {
			got := mat.New(shape.n, d)
			na.MulDenseBiasReLUInto(got, h, nil, nil, false, workers)
			same("MulDenseBiasReLUInto plain", got, plain, 0)
			na.MulDenseBiasReLUInto(got, h, bias, res, true, workers)
			same("MulDenseBiasReLUInto fused", got, fused, 0)
		}
		n := shape.n
		for _, r := range [][2]int{{0, 1}, {1, 1}, {1, 7}, {7, n - 3}, {n - 3, n - 1}, {n - 1, n}, {0, n}} {
			lo, hi := r[0], r[1]
			got := mat.New(hi-lo, d)
			na.MulDenseBiasReLURangeInto(got, h, lo, hi, nil, nil, false, 1)
			same("MulDenseBiasReLURangeInto plain", got, plain, lo)
			resRows := mat.New(hi-lo, d)
			copy(resRows.Data, res.Data[lo*d:hi*d])
			for _, workers := range []int{1, 3} {
				na.MulDenseBiasReLURangeInto(got, h, lo, hi, bias, resRows, true, workers)
				same("MulDenseBiasReLURangeInto", got, fused, lo)
			}
		}
	}
}

// TestSpMMRejectsCorruptColumnBeforeWriting: the products check a
// range's column indices once, ahead of its first row, so one column
// outside H in the middle of a range panics — at fp64 and at int8, for
// the whole operator and for a range whose own rows hold it — with no
// destination row written, and a range that does not reach the bad
// column is computed as ever. A short epilogue operand — fp64 bias or
// residual, any of int8's — is refused the same way, and so is int8
// source, destination, residual or label storage short of its shape.
func TestSpMMRejectsCorruptColumnBeforeWriting(t *testing.T) {
	const n, d = 400, 8
	rng := rand.New(rand.NewSource(33))
	na := raggedCSR(rng, n, n)
	h := benchDense(n, d)
	h8 := mat.NewI8(n, d)
	for i := range h8.Data {
		h8.Data[i] = int8(rng.Intn(255) - 127)
	}
	ones := make([]float64, d)
	for j := range ones {
		ones[j] = 1
	}
	badRow := n / 2
	for na.RowPtr[badRow] == na.RowPtr[badRow+1] {
		badRow++
	}
	for _, bad := range []int{n, -1} {
		pos := na.RowPtr[badRow]
		good := na.ColIdx[pos]
		na.ColIdx[pos] = bad
		for _, r := range [][2]int{{0, n}, {badRow - 20, badRow + 20}} {
			lo, hi := r[0], r[1]
			dst := mat.New(hi-lo, d)
			for i := range dst.Data {
				dst.Data[i] = 7
			}
			mustPanic(t, func() { na.MulDenseBiasReLURangeInto(dst, h, lo, hi, nil, nil, false, 1) })
			dst8 := mat.NewI8(hi-lo, d)
			for i := range dst8.Data {
				dst8.Data[i] = 7
			}
			mustPanic(t, func() {
				na.MulDenseI8EpilogueRangeInto(dst8, h8, lo, hi, 1, ones, nil, nil, nil, false, ones, make([]int32, d), nil)
			})
			for i := range dst.Data {
				if dst.Data[i] != 7 || dst8.Data[i] != 7 {
					t.Fatalf("column %d in row %d, range [%d,%d): element %d written before the panic (fp64 %v, int8 %d)",
						bad, badRow, lo, hi, i, dst.Data[i], dst8.Data[i])
				}
			}
		}
		// Rows short of the bad column are none of its business.
		na.MulDenseBiasReLURangeInto(mat.New(badRow, d), h, 0, badRow, nil, nil, false, 1)
		na.ColIdx[pos] = good
	}

	// The fp64 epilogue operands are proved once per op too
	// (mat.CheckEpilogue): a bias or a residual that does not fit the
	// destination panics before any row is written, serial or banded.
	dst := mat.New(n, d)
	for i := range dst.Data {
		dst.Data[i] = 7
	}
	cutRes := mat.New(n, d)
	cutRes.Data = cutRes.Data[:n*d-1]
	for name, fn := range map[string]func(){
		"bias":             func() { na.MulDenseBiasReLUInto(dst, h, ones[:d-1], nil, true, 1) },
		"long bias":        func() { na.MulDenseBiasReLUInto(dst, h, append(ones, 1), nil, false, 3) },
		"residual rows":    func() { na.MulDenseBiasReLUInto(dst, h, nil, mat.New(n-1, d), false, 1) },
		"residual cols":    func() { na.MulDenseBiasReLUInto(dst, h, ones, mat.New(n, d+1), true, 3) },
		"residual storage": func() { na.MulDenseBiasReLUInto(dst, h, nil, cutRes, false, 1) },
		"ranged residual":  func() { na.MulDenseBiasReLURangeInto(mat.New(10, d), h, 5, 15, nil, mat.New(11, d), false, 1) },
	} {
		mustPanic(t, fn)
		for i, v := range dst.Data {
			if v != 7 {
				t.Fatalf("mis-shaped fp64 %s: element %d written before the panic", name, i)
			}
		}
	}

	// The int8 epilogue operands are proved once per range too
	// (mat.CheckEpilogueI8): a short one panics before any row is written.
	dst8, res8 := mat.NewI8(n, d), mat.NewI8(n, d)
	for i := range dst8.Data {
		dst8.Data[i] = 7
	}
	short, acc := ones[:d-1], make([]int32, d)
	for name, fn := range map[string]func(){
		"deq":  func() { na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, short, nil, nil, nil, false, ones, acc, nil) },
		"bias": func() { na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, ones, short, nil, nil, true, ones, acc, nil) },
		"resScales": func() {
			na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, ones, nil, res8, short, false, ones, acc, nil)
		},
		"dstScales": func() {
			na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, ones, nil, nil, nil, false, short, acc, make([]int, n))
		},
	} {
		mustPanic(t, fn)
		for i, q := range dst8.Data {
			if q != 7 {
				t.Fatalf("short %s: element %d written before the panic", name, i)
			}
		}
	}

	// And so is the storage the int8 range reads and writes unchecked: a
	// source, a destination or a residual whose backing array is shorter
	// than its shape says, and labels short of the rows, panic before any
	// row is written — where Go's slicing used to stop such a range only
	// at the row that crossed the end.
	cut := func(m *mat.MatrixI8) *mat.MatrixI8 {
		return &mat.MatrixI8{Rows: m.Rows, Cols: m.Cols, Data: m.Data[:len(m.Data)-1]}
	}
	for name, fn := range map[string]func(){
		"source": func() {
			na.MulDenseI8EpilogueRangeInto(dst8, cut(h8), 0, n, 1, ones, nil, nil, nil, false, ones, acc, nil)
		},
		"destination": func() {
			na.MulDenseI8EpilogueRangeInto(cut(dst8), h8, 0, n, 1, ones, nil, nil, nil, false, ones, acc, nil)
		},
		"residual": func() {
			na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, ones, nil, cut(res8), ones, false, ones, acc, nil)
		},
		"labels": func() {
			na.MulDenseI8EpilogueRangeInto(dst8, h8, 0, n, 1, ones, nil, nil, nil, false, ones, acc, make([]int, n-1))
		},
	} {
		mustPanic(t, fn)
		for i, q := range dst8.Data {
			if q != 7 {
				t.Fatalf("short %s storage: element %d written before the panic", name, i)
			}
		}
	}
}

// TestSpMMRejectsCorruptRowPtrBeforeWriting: the fp64 kernel walks a
// range's row pointers without Go's slicing to bound them, so they are
// proved with the columns, once per range and ahead of its first row
// (mat.CheckCSR): a pointer that falls, goes negative or runs past the
// non-zeros — in the range, or in the look-ahead rows after it — panics
// at fp64 and at int8 with no destination row written, where slicing used
// to stop such a range only when it reached the bad row, the rows before
// it already stored. A range that ends short of the bad pointer and of
// the rows it hints at is computed as ever.
func TestSpMMRejectsCorruptRowPtrBeforeWriting(t *testing.T) {
	const n, d = 400, 8
	rng := rand.New(rand.NewSource(34))
	na := raggedCSR(rng, n, n)
	h := benchDense(n, d)
	h8 := mat.NewI8(n, d)
	ones := make([]float64, d)
	for j := range ones {
		ones[j] = 1
	}
	badRow := n / 2
	for na.RowPtr[badRow] == na.RowPtr[badRow-1] || na.RowPtr[badRow] == na.RowPtr[badRow+1] {
		badRow++
	}
	good := na.RowPtr[badRow]
	for name, bad := range map[string]int{
		"falling":       na.RowPtr[badRow-1] - 1,
		"negative":      -3,
		"past the end":  na.NNZ() + 1,
		"past its next": na.RowPtr[badRow+1] + 1,
	} {
		na.RowPtr[badRow] = bad
		for _, r := range [][2]int{{0, n}, {badRow - 20, badRow + 20}, {badRow - 20, badRow - 1}, {badRow - 1, badRow + 20}} {
			lo, hi := r[0], r[1]
			dst := mat.New(hi-lo, d)
			for i := range dst.Data {
				dst.Data[i] = 7
			}
			mustPanic(t, func() { na.MulDenseBiasReLURangeInto(dst, h, lo, hi, ones, nil, true, 1) })
			dst8 := mat.NewI8(hi-lo, d)
			for i := range dst8.Data {
				dst8.Data[i] = 7
			}
			mustPanic(t, func() {
				na.MulDenseI8EpilogueRangeInto(dst8, h8, lo, hi, 1, ones, nil, nil, nil, false, ones, make([]int32, d), nil)
			})
			for i := range dst.Data {
				if dst.Data[i] != 7 || dst8.Data[i] != 7 {
					t.Fatalf("%s pointer %d at row %d, range [%d,%d): element %d written before the panic (fp64 %v, int8 %d)",
						name, bad, badRow, lo, hi, i, dst.Data[i], dst8.Data[i])
				}
			}
		}
		// Rows that neither hold the bad pointer nor look ahead to it are
		// none of its business.
		na.MulDenseBiasReLURangeInto(mat.New(badRow-gatherAhead-1, d), h, 0, badRow-gatherAhead-1, nil, nil, false, 1)
		na.RowPtr[badRow] = good
	}
}
