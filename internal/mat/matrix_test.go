package mat

import (
	"math/rand"
	"testing"
)

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %s, want 3x4", m.Shape())
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("layout wrong: %v", m.Data)
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Fatalf("At after Set = %v", m.At(1, 0))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestRowIsView(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row did not return a view")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] == 42 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %s", tr.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeLargeBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandNormal(rng, 70, 45, 0, 1)
	tr := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("blocked T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestAddSubHadamardScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := a.Add(b); !got.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12})) {
		t.Errorf("Add = %v", got.Data)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	a.AddInPlace(FromSlice(1, 3, []float64{1, 1, 1}))
	if !a.Equal(FromSlice(1, 3, []float64{2, 3, 4})) {
		t.Errorf("AddInPlace = %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := a.AddRowVector([]float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !got.Equal(want) {
		t.Errorf("AddRowVector = %v", got.Data)
	}
}

func TestColSumsSum(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	cs := a.ColSums()
	if cs[0] != 5 || cs[1] != 7 || cs[2] != 9 {
		t.Errorf("ColSums = %v", cs)
	}
}

func TestMaxAbsNorm(t *testing.T) {
	a := FromSlice(1, 3, []float64{3, -4, 0})
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice(3, 3, []float64{1, 5, 2, 9, 0, 1, 2, 2, 3})
	got := a.ArgmaxRows()
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgmaxRows = %v, want %v", got, want)
		}
	}
}

func TestSliceSelectRows(t *testing.T) {
	a := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	sel := a.SelectRows([]int{2, 0})
	if !sel.Equal(FromSlice(2, 2, []float64{5, 6, 1, 2})) {
		t.Errorf("SelectRows = %v", sel.Data)
	}
}

func TestHConcat(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	got := HConcat(a, b)
	want := FromSlice(2, 3, []float64{1, 3, 4, 2, 5, 6})
	if !got.Equal(want) {
		t.Errorf("HConcat = %v", got.Data)
	}
}

func TestHConcatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HConcat with row mismatch did not panic")
		}
	}()
	HConcat(New(2, 1), New(3, 1))
}

func TestEqualApprox(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1.0001, 2})
	if a.EqualApprox(b, 1e-6) {
		t.Error("EqualApprox too lax")
	}
	if !a.EqualApprox(b, 1e-3) {
		t.Error("EqualApprox too strict")
	}
}

func TestNumBytes(t *testing.T) {
	if got := New(4, 8).NumBytes(); got != 256 {
		t.Errorf("NumBytes = %d, want 256", got)
	}
}

func TestSliceCols(t *testing.T) {
	a := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	got := a.SliceCols(1, 3)
	want := FromSlice(2, 2, []float64{2, 3, 6, 7})
	if !got.Equal(want) {
		t.Errorf("SliceCols = %v", got.Data)
	}
}

func TestSliceColsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SliceCols did not panic")
		}
	}()
	New(2, 3).SliceCols(1, 4)
}
