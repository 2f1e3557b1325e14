package mat

import (
	"fmt"
	"math"
)

// MatrixI8 is a dense row-major matrix of symmetric-quantized int8
// codes. A code q represents the real value q·scale; the scale lives
// outside the matrix (per-value activation scales and per-column weight
// scales are owned by the executor's quantization plan).
type MatrixI8 struct {
	Rows, Cols int
	Data       []int8
}

// NewI8 returns a zero-initialised rows×cols int8 matrix.
func NewI8(rows, cols int) *MatrixI8 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &MatrixI8{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}

// Shape returns "RxC" for error messages and logs.
func (m *MatrixI8) Shape() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// Row returns a view (not a copy) of row i.
func (m *MatrixI8) Row(i int) []int8 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ViewRows repoints view at rows [lo, hi) of m without copying, exactly
// like Matrix.ViewRows. Mutating the view mutates m.
func (m *MatrixI8) ViewRows(lo, hi int, view *MatrixI8) *MatrixI8 {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: ViewRows [%d,%d) out of range %d", lo, hi, m.Rows))
	}
	view.Rows = hi - lo
	view.Cols = m.Cols
	view.Data = m.Data[lo*m.Cols : hi*m.Cols]
	return view
}

// NumBytes returns the in-memory payload size of the matrix data in
// bytes (1 per element), used for EPC accounting and transfer costing.
func (m *MatrixI8) NumBytes() int64 { return int64(len(m.Data)) }

// ArgmaxRowsScaledInto writes, for each row, the column index of its
// maximum dequantized value code·scales[col] into dst (first maximum
// wins). Per-column scales make raw codes incomparable across columns, so
// the argmax must compare dequantized reals; the comparison is still
// deterministic in the codes, preserving the within-precision
// bit-identity of every execution mode.
func (m *MatrixI8) ArgmaxRowsScaledInto(dst []int, scales []float64) {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: ArgmaxRowsScaledInto dst length %d != %d rows", len(dst), m.Rows))
	}
	if len(scales) != m.Cols {
		panic(fmt.Sprintf("mat: ArgmaxRowsScaledInto %d scales != %d cols", len(scales), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		if len(row) == 0 {
			dst[i] = 0
			continue
		}
		best, arg := float64(row[0])*scales[0], 0
		for j, q := range row {
			if v := float64(q) * scales[j]; v > best {
				best, arg = v, j
			}
		}
		dst[i] = arg
	}
}

// CopyI8Into copies src into dst; shapes must match.
func CopyI8Into(dst, src *MatrixI8) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyI8Into shape mismatch %s vs %s", dst.Shape(), src.Shape()))
	}
	copy(dst.Data, src.Data)
}

// SymmetricScale returns the symmetric int8 quantization scale for a
// tensor whose largest absolute value is maxAbs: codes span ±127 and a
// code q represents q·scale. A zero (or negative) maxAbs yields scale 0,
// which QuantizeI8 maps every value to code 0.
func SymmetricScale(maxAbs float64) float64 {
	if maxAbs <= 0 {
		return 0
	}
	return maxAbs / 127
}

// QuantizeI8Into quantizes the float64 matrix src into dst under a
// single symmetric scale: the requantise row (requant.go) over the whole
// matrix as one row, so its codes are QuantizeI8's. Shapes must match.
func QuantizeI8Into(dst *MatrixI8, src *Matrix, scale float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("mat: QuantizeI8Into shape mismatch %s vs %s", dst.Shape(), src.Shape()))
	}
	requantRowChecked(dst.Data, nil, nil, src.Data, nil, nil, nil, scale, false)
}

// QuantizeColumnsI8Into quantizes the float64 matrix src into dst under
// per-column symmetric scales (the activation counterpart of
// QuantizeColumnsI8's weight preparation). Alloc-free: the int8 boundary
// conversion of every Run goes through here.
func QuantizeColumnsI8Into(dst *MatrixI8, src *Matrix, scales []float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("mat: QuantizeColumnsI8Into shape mismatch %s vs %s", dst.Shape(), src.Shape()))
	}
	if len(scales) != src.Cols {
		panic(fmt.Sprintf("mat: QuantizeColumnsI8Into %d scales != %d cols", len(scales), src.Cols))
	}
	cols := src.Cols
	for i := 0; i < src.Rows; i++ {
		RequantizeRow(dst.Data[i*cols:(i+1)*cols], nil, nil, src.Data[i*cols:(i+1)*cols], nil, nil, scales, false)
	}
}

// DequantizeColumnsI8Into widens the int8 matrix src into the float64 dst
// as code·scales[col] per element. Shapes must match.
func DequantizeColumnsI8Into(dst *Matrix, src *MatrixI8, scales []float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("mat: DequantizeColumnsI8Into shape mismatch %s vs %s", dst.Shape(), src.Shape()))
	}
	if len(scales) != src.Cols {
		panic(fmt.Sprintf("mat: DequantizeColumnsI8Into %d scales != %d cols", len(scales), src.Cols))
	}
	cols := src.Cols
	for i := 0; i < src.Rows; i++ {
		srow := src.Data[i*cols : (i+1)*cols]
		drow := dst.Data[i*cols : (i+1)*cols]
		for j, q := range srow {
			drow[j] = float64(q) * scales[j]
		}
	}
}

// ColMaxAbsInto writes each column's largest absolute value into dst
// (length m.Cols), the per-channel statistic calibration derives int8
// activation scales from.
func (m *Matrix) ColMaxAbsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: ColMaxAbsInto dst length %d != %d cols", len(dst), m.Cols))
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if a := math.Abs(v); a > dst[j] {
				dst[j] = a
			}
		}
	}
}

// QuantizeColumnsI8 quantizes a float64 weight matrix column-wise with
// per-column symmetric scales (maxabs/127 per output feature), the
// deploy-time weight preparation for int8 plans. It returns the code
// matrix and the per-column scales.
func QuantizeColumnsI8(w *Matrix) (*MatrixI8, []float64) {
	q := NewI8(w.Rows, w.Cols)
	scales := make([]float64, w.Cols)
	for j := 0; j < w.Cols; j++ {
		mx := 0.0
		for i := 0; i < w.Rows; i++ {
			if a := math.Abs(w.Data[i*w.Cols+j]); a > mx {
				mx = a
			}
		}
		scales[j] = SymmetricScale(mx)
	}
	QuantizeColumnsI8Into(q, w, scales)
	return q, scales
}
