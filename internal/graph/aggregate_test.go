package graph

import (
	"math"
	"math/rand"
	"testing"

	"gnnvault/internal/mat"
)

// These structural tests lived in internal/nn (next to the SAGE/GAT layers
// that consume the operators) but exercise aggregate.go exclusively, so
// they belong — and count toward coverage — here.

func TestMeanAdjacencyRowsStochastic(t *testing.T) {
	g := Random(20, 40, 1)
	agg := MeanAdjacency(g)
	for i := 0; i < 20; i++ {
		sum := 0.0
		for p := agg.RowPtr[i]; p < agg.RowPtr[i+1]; p++ {
			sum += agg.Val[p]
		}
		if g.Degree(i) == 0 {
			if sum != 0 {
				t.Fatalf("isolated node row sum = %v", sum)
			}
		} else if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sum = %v, want 1", i, sum)
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	g := Random(15, 30, 2)
	agg := MeanAdjacency(g)
	if !agg.Transpose().Dense().EqualApprox(agg.Dense().T(), 1e-12) {
		t.Fatal("CSR transpose disagrees with dense transpose")
	}
}

func TestSelfLoopAdjacencyStructure(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}})
	st := SelfLoopAdjacency(g)
	d := st.Dense()
	want := mat.FromSlice(3, 3, []float64{1, 1, 0, 1, 1, 0, 0, 0, 1})
	if !d.EqualApprox(want, 1e-12) {
		t.Fatalf("self-loop structure = %v", d.Data)
	}
}

func TestMulDenseIntoMatchesMulDense(t *testing.T) {
	for _, n := range []int{1, 17, 300} { // below and above the parallel cutover
		g := Random(n, 3*n, int64(n))
		na := Normalize(g)
		h := mat.RandNormal(rand.New(rand.NewSource(int64(n))), n, 7, 0, 1)
		want := na.MulDense(h)
		dst := mat.New(n, 7)
		dst.Data[0] = 42 // stale content must be overwritten
		na.MulDenseBiasReLUInto(dst, h, nil, nil, false, 0)
		if !dst.EqualApprox(want, 1e-12) {
			t.Fatalf("n=%d: MulDenseBiasReLUInto disagrees with MulDense", n)
		}
		dst.Zero()
		na.MulDenseBiasReLUInto(dst, h, nil, nil, false, 1)
		if !dst.EqualApprox(want, 1e-12) {
			t.Fatalf("n=%d: serial MulDenseBiasReLUInto disagrees with MulDense", n)
		}
	}
}

func TestMulDenseIntoAllocFree(t *testing.T) {
	g := Random(100, 300, 5)
	na := Normalize(g)
	h := mat.RandNormal(rand.New(rand.NewSource(5)), 100, 8, 0, 1)
	dst := mat.New(100, 8)
	allocs := testing.AllocsPerRun(20, func() {
		na.MulDenseBiasReLUInto(dst, h, nil, nil, false, 1)
	})
	if allocs > 0 {
		t.Fatalf("serial MulDenseBiasReLUInto allocates %.1f objects/op", allocs)
	}
}

func TestMulDenseIntoShapeAndAliasPanics(t *testing.T) {
	g := Random(10, 20, 3)
	na := Normalize(g)
	h := mat.RandNormal(rand.New(rand.NewSource(3)), 10, 4, 0, 1)
	for name, fn := range map[string]func(){
		"bad shape": func() { na.MulDenseBiasReLUInto(mat.New(10, 5), h, nil, nil, false, 0) },
		"alias":     func() { na.MulDenseBiasReLUInto(h, h, nil, nil, false, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
