// Package mat provides dense row-major float64 matrices and the linear
// algebra kernels used throughout GNNVault: blocked parallel matrix
// multiplication, transposes, element-wise operations, reductions, and
// parameter initialisation.
//
// The package is deliberately small and dependency-free: GNNVault targets
// edge deployment where the rectifier runs inside a TEE enclave, so the
// same kernels must be usable both in the (parallel) normal world and in
// the (single-threaded, memory-accounted) enclave simulation.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Data is stored in a single
// contiguous slice; element (i, j) lives at Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialised rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly
// (not copied); len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice size mismatch: %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

// Shape returns "RxC" for error messages and logs.
func (m *Matrix) Shape() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	const blk = 32
	for ii := 0; ii < m.Rows; ii += blk {
		for jj := 0; jj < m.Cols; jj += blk {
			iMax := min(ii+blk, m.Rows)
			jMax := min(jj+blk, m.Cols)
			for i := ii; i < iMax; i++ {
				for j := jj; j < jMax; j++ {
					t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
				}
			}
		}
	}
	return t
}

// Add returns m + o element-wise.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.requireSameShape(o, "Add")
	r := New(m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = m.Data[i] + o.Data[i]
	}
	return r
}

// AddInPlace adds o into m and returns m.
func (m *Matrix) AddInPlace(o *Matrix) *Matrix {
	m.requireSameShape(o, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
	return m
}

// AddRowVector adds the 1×Cols vector v to every row of m, returning a new
// matrix. Used for bias addition. Allocating wrapper over AddBiasInto.
func (m *Matrix) AddRowVector(v []float64) *Matrix {
	r := New(m.Rows, m.Cols)
	AddBiasInto(r, m, v)
	return r
}

// ColSums returns the per-column sums of m as a length-Cols slice.
func (m *Matrix) ColSums() []float64 {
	s := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			s[j] += v
		}
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ArgmaxRows returns, for each row, the column index of its maximum value.
// Allocating wrapper over ArgmaxRowsInto.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	m.ArgmaxRowsInto(out)
	return out
}

// ViewRows repoints view at rows [lo, hi) of m without copying: view's
// header is overwritten to alias m's backing array. Mutating the view
// mutates m. The tiled executor uses pre-allocated view headers to walk row
// tiles of spilled activations with zero steady-state allocation.
func (m *Matrix) ViewRows(lo, hi int, view *Matrix) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: ViewRows [%d,%d) out of range %d", lo, hi, m.Rows))
	}
	view.Rows = hi - lo
	view.Cols = m.Cols
	view.Data = m.Data[lo*m.Cols : hi*m.Cols]
	return view
}

// SelectRows returns a new matrix containing the given rows of m, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	r := New(len(idx), m.Cols)
	for k, i := range idx {
		copy(r.Row(k), m.Row(i))
	}
	return r
}

// SliceCols returns a copy of columns [lo, hi) of m.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("mat: SliceCols [%d,%d) out of range %d", lo, hi, m.Cols))
	}
	r := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(r.Row(i), m.Row(i)[lo:hi])
	}
	return r
}

// HConcat returns [m | o], the horizontal concatenation of m and o.
// Allocating wrapper over HConcatInto.
func HConcat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("mat: HConcat row mismatch: %d != %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	r := New(rows, cols)
	HConcatInto(r, ms...)
	return r
}

// Equal reports whether m and o are identical in shape and values.
func (m *Matrix) Equal(o *Matrix) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and o agree element-wise within tol.
func (m *Matrix) EqualApprox(o *Matrix, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// NumBytes returns the in-memory payload size of the matrix data in bytes.
// Used by the enclave simulator for EPC accounting and transfer costing.
func (m *Matrix) NumBytes() int64 { return int64(len(m.Data)) * 8 }

func (m *Matrix) requireSameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("mat: %s shape mismatch %s vs %s", op, m.Shape(), o.Shape()))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
