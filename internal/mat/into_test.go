package mat

import (
	"math/rand"
	"testing"
)

// fillGarbage seeds dst with stale values so tests catch kernels that fail
// to overwrite their destination.
func fillGarbage(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = 1e9
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Spans the serial fast path and the parallel band path.
	for _, dims := range [][3]int{{1, 1, 1}, {7, 5, 3}, {64, 48, 80}, {120, 90, 70}} {
		a := RandNormal(rng, dims[0], dims[1], 0, 1)
		b := RandNormal(rng, dims[1], dims[2], 0, 1)
		want := MatMul(a, b)
		dst := New(dims[0], dims[2])
		fillGarbage(dst)
		MatMulInto(dst, a, b)
		if !dst.EqualApprox(want, 1e-12) {
			t.Fatalf("%v: MatMulInto disagrees", dims)
		}
		fillGarbage(dst)
		MatMulSerialInto(dst, a, b)
		if !dst.EqualApprox(want, 1e-12) {
			t.Fatalf("%v: MatMulSerialInto disagrees", dims)
		}
	}
}

func TestMatMulTransIntoMatchGold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 30, 20, 0, 1)
	b := RandNormal(rng, 30, 25, 0, 1)
	want := MatMul(a.T(), b)
	dst := New(20, 25)
	fillGarbage(dst)
	MatMulTransAInto(dst, a, b)
	if !dst.EqualApprox(want, 1e-10) {
		t.Fatal("MatMulTransAInto disagrees with explicit transpose")
	}

	c := RandNormal(rng, 25, 20, 0, 1)
	want2 := MatMul(a, c.T())
	dst2 := New(30, 25)
	fillGarbage(dst2)
	MatMulTransBInto(dst2, a, c)
	if !dst2.EqualApprox(want2, 1e-10) {
		t.Fatal("MatMulTransBInto disagrees with explicit transpose")
	}
}

func TestAddBiasIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := RandNormal(rng, 6, 4, 0, 1)
	bias := []float64{1, -2, 3, -4}
	want := x.AddRowVector(bias)
	dst := New(6, 4)
	AddBiasInto(dst, x, bias)
	if !dst.Equal(want) {
		t.Fatal("AddBiasInto into fresh destination disagrees")
	}
	AddBiasInto(x, x, bias) // in-place form
	if !x.Equal(want) {
		t.Fatal("AddBiasInto in place disagrees")
	}
}

func TestReLUAndAddInto(t *testing.T) {
	x := FromSlice(2, 3, []float64{-1, 2, 0, 3, -4, 5})
	dst := New(2, 3)
	fillGarbage(dst)
	ReLUInto(dst, x)
	if !dst.Equal(FromSlice(2, 3, []float64{0, 2, 0, 3, 0, 5})) {
		t.Fatalf("ReLUInto = %v", dst.Data)
	}
	ReLUInto(x, x) // in-place form
	if !x.Equal(dst) {
		t.Fatal("ReLUInto in place disagrees")
	}

	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	sum := New(1, 3)
	AddInto(sum, a, b)
	if !sum.Equal(FromSlice(1, 3, []float64{11, 22, 33})) {
		t.Fatalf("AddInto = %v", sum.Data)
	}
	AddInto(a, a, b) // in-place accumulate
	if !a.Equal(sum) {
		t.Fatal("AddInto in place disagrees")
	}
}

func TestHConcatIntoMatchesHConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 5, 2, 0, 1)
	b := RandNormal(rng, 5, 3, 0, 1)
	c := RandNormal(rng, 5, 1, 0, 1)
	want := HConcat(a, b, c)
	dst := New(5, 6)
	fillGarbage(dst)
	HConcatInto(dst, a, b, c)
	if !dst.Equal(want) {
		t.Fatal("HConcatInto disagrees with HConcat")
	}
}

func TestArgmaxRowsIntoMatchesArgmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandNormal(rng, 40, 7, 0, 1)
	want := m.ArgmaxRows()
	got := make([]int, 40)
	m.ArgmaxRowsInto(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestIntoKernelsPanicOnMisuse(t *testing.T) {
	a := New(4, 3)
	b := New(3, 5)
	cases := map[string]func(){
		"matmul shape":     func() { MatMulInto(New(4, 4), a, b) },
		"matmul alias a":   func() { MatMulInto(a, a, New(3, 3)) },
		"matmul alias b":   func() { MatMulInto(b, New(5, 3), b) },
		"transA shape":     func() { MatMulTransAInto(New(3, 3), a, New(4, 5)) },
		"transB shape":     func() { MatMulTransBInto(New(4, 4), a, New(5, 3)) },
		"bias length":      func() { AddBiasInto(New(4, 3), a, []float64{1}) },
		"relu shape":       func() { ReLUInto(New(4, 4), a) },
		"hconcat shape":    func() { HConcatInto(New(4, 5), a, a) },
		"hconcat alias":    func() { HConcatInto(a, a) },
		"argmax length":    func() { a.ArgmaxRowsInto(make([]int, 3)) },
		"copy shape":       func() { CopyInto(New(3, 3), a) },
		"add shape":        func() { AddInto(New(4, 4), a, a) },
		"matmul dim inner": func() { MatMulInto(New(4, 4), a, New(4, 4)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSerialIntoKernelsAllocFree pins the property the inference plan is
// built on: single-threaded Into kernels never touch the heap.
func TestSerialIntoKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandNormal(rng, 60, 40, 0, 1)
	b := RandNormal(rng, 40, 30, 0, 1)
	dst := New(60, 30)
	bias := make([]float64, 30)
	labels := make([]int, 60)
	allocs := testing.AllocsPerRun(20, func() {
		MatMulSerialInto(dst, a, b)
		AddBiasInto(dst, dst, bias)
		ReLUInto(dst, dst)
		dst.ArgmaxRowsInto(labels)
	})
	if allocs > 0 {
		t.Fatalf("serial Into kernels allocate %.1f objects/op", allocs)
	}
}

// TestParallelIntoRespectsMaxWorkers: under a per-call budget of one
// worker, even large products stay on the calling goroutine (no spawn, no
// allocation) — the plan-scoped form, no process-global knob involved.
func TestParallelIntoRespectsMaxWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandNormal(rng, 128, 128, 0, 1)
	b := RandNormal(rng, 128, 128, 0, 1)
	dst := New(128, 128)
	allocs := testing.AllocsPerRun(5, func() {
		MatMulBiasReLUInto(dst, a, b, nil, nil, false, 1)
	})
	if allocs > 0 {
		t.Fatalf("MatMulBiasReLUInto with 1 worker allocates %.1f objects/op", allocs)
	}
	if !dst.EqualApprox(MatMul(a, b), 1e-12) {
		t.Fatal("single-worker result disagrees")
	}
}

func BenchmarkMatMulInto256(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := RandNormal(rng, 256, 256, 0, 1)
	y := RandNormal(rng, 256, 256, 0, 1)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}
