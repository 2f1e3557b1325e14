package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnvault/internal/mat"
)

func TestNormalizeSingleNode(t *testing.T) {
	na := Normalize(New(1, nil))
	if na.NNZ() != 1 || na.Val[0] != 1.0 {
		t.Fatalf("isolated node normalisation = %+v", na)
	}
}

func TestNormalizeTwoNodes(t *testing.T) {
	na := Normalize(New(2, []Edge{{0, 1}}))
	// Each node has degree 1 + self loop → D̃ = 2. All entries = 1/2.
	d := na.Dense()
	want := mat.FromSlice(2, 2, []float64{0.5, 0.5, 0.5, 0.5})
	if !d.EqualApprox(want, 1e-12) {
		t.Fatalf("normalised 2-node = %v", d.Data)
	}
}

func TestNormalizeSymmetric(t *testing.T) {
	g := Random(40, 120, 1)
	d := Normalize(g).Dense()
	if !d.EqualApprox(d.T(), 1e-12) {
		t.Fatal("Â not symmetric")
	}
}

func TestNormalizeDiagonalPresent(t *testing.T) {
	g := Random(30, 60, 2)
	na := Normalize(g)
	d := na.Dense()
	for i := 0; i < g.N(); i++ {
		want := 1.0 / float64(g.Degree(i)+1)
		if math.Abs(d.At(i, i)-want) > 1e-12 {
			t.Fatalf("Â[%d,%d] = %v, want %v", i, i, d.At(i, i), want)
		}
	}
}

func TestNormalizeMatchesDenseFormula(t *testing.T) {
	g := Random(25, 50, 3)
	n := g.N()
	aPlusI := g.Dense().Add(mat.Identity(n))
	dInvSqrt := mat.New(n, n)
	for i := 0; i < n; i++ {
		dInvSqrt.Set(i, i, 1/math.Sqrt(float64(g.Degree(i)+1)))
	}
	want := mat.MatMul(mat.MatMul(dInvSqrt, aPlusI), dInvSqrt)
	if !Normalize(g).Dense().EqualApprox(want, 1e-12) {
		t.Fatal("CSR normalisation disagrees with dense D^-1/2 (A+I) D^-1/2")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Random(35, 80, 4)
	na := Normalize(g)
	h := mat.RandNormal(rng, 35, 9, 0, 1)
	want := mat.MatMul(na.Dense(), h)
	if !na.MulDense(h).EqualApprox(want, 1e-10) {
		t.Fatal("sparse MulDense disagrees with dense product")
	}
}

func TestMulDenseParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Random(600, 2400, 5) // above the parallel threshold
	na := Normalize(g)
	h := mat.RandNormal(rng, 600, 8, 0, 1)
	inline := mat.New(na.N, h.Cols)
	na.MulDenseBiasReLUInto(inline, h, nil, nil, false, 1)
	if !na.MulDense(h).Equal(inline) {
		t.Fatal("parallel and one-worker sparse products disagree")
	}
}

func TestMulDenseShapePanics(t *testing.T) {
	na := Normalize(New(3, nil))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	na.MulDense(mat.New(4, 2))
}

func TestNormAdjacencyNumBytes(t *testing.T) {
	na := Normalize(New(2, []Edge{{0, 1}}))
	// nnz = 4 (two edges + two self loops), rowPtr = 3 entries.
	want := int64(4*16 + 3*8)
	if na.NumBytes() != want {
		t.Fatalf("NumBytes = %d, want %d", na.NumBytes(), want)
	}
}

func TestPropNormalizedRowSumsBounded(t *testing.T) {
	// Rows of Â are strictly positive on their support, every entry is at
	// most 1, and each row sum is bounded by sqrt(d̃_i): row i sums
	// Σ_j 1/sqrt(d̃_i d̃_j) over d̃_i terms, each ≤ 1/sqrt(d̃_i).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := Random(n, rng.Intn(2*n), seed)
		na := Normalize(g)
		for i := 0; i < n; i++ {
			sum := 0.0
			for p := na.RowPtr[i]; p < na.RowPtr[i+1]; p++ {
				if na.Val[p] <= 0 || na.Val[p] > 1+1e-12 {
					return false
				}
				sum += na.Val[p]
			}
			bound := math.Sqrt(float64(g.Degree(i) + 1))
			if sum <= 0 || sum > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropMulDensePreservesConstantVector(t *testing.T) {
	// On a regular graph, Â·1 = 1 exactly. Path/ring regularity: use a ring.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		edges := make([]Edge, n)
		for i := 0; i < n; i++ {
			edges[i] = Edge{i, (i + 1) % n}
		}
		g := New(n, edges)
		ones := mat.New(n, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		out := Normalize(g).MulDense(ones)
		for _, v := range out.Data {
			if math.Abs(v-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlantedPartitionBasics(t *testing.T) {
	cfg := PlantedPartitionConfig{Nodes: 300, Classes: 5, AvgDegree: 6, Homophily: 0.9, Seed: 42}
	g, labels := PlantedPartition(cfg)
	if g.N() != 300 || len(labels) != 300 {
		t.Fatalf("n = %d, labels = %d", g.N(), len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= 5 {
			t.Fatalf("label %d out of range", l)
		}
	}
	if got := g.AvgDegree(); got < 4 || got > 8 {
		t.Fatalf("AvgDegree = %v, want ≈ 6", got)
	}
	if h := g.Homophily(labels); h < 0.75 {
		t.Fatalf("Homophily = %v, want high (cfg 0.9)", h)
	}
}

func TestPlantedPartitionHomophilyKnob(t *testing.T) {
	lo, ll := PlantedPartition(PlantedPartitionConfig{Nodes: 400, Classes: 4, AvgDegree: 8, Homophily: 0.1, Seed: 7})
	hi, hl := PlantedPartition(PlantedPartitionConfig{Nodes: 400, Classes: 4, AvgDegree: 8, Homophily: 0.95, Seed: 7})
	if lo.Homophily(ll) >= hi.Homophily(hl) {
		t.Fatalf("homophily knob not monotone: %v vs %v", lo.Homophily(ll), hi.Homophily(hl))
	}
}

func TestPlantedPartitionDeterministic(t *testing.T) {
	cfg := PlantedPartitionConfig{Nodes: 100, Classes: 3, AvgDegree: 4, Homophily: 0.8, Seed: 11}
	g1, l1 := PlantedPartition(cfg)
	g2, l2 := PlantedPartition(cfg)
	if !g1.Equal(g2) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestPlantedPartitionSkewedClasses(t *testing.T) {
	_, labels := PlantedPartition(PlantedPartitionConfig{
		Nodes: 500, Classes: 8, AvgDegree: 5, Homophily: 0.8, ClassSkew: 0.5, Seed: 13,
	})
	counts := make([]int, 8)
	for _, l := range labels {
		counts[l]++
	}
	for c, n := range counts {
		if n < 2 {
			t.Fatalf("class %d has %d nodes, want >= 2", c, n)
		}
	}
	if counts[0] <= counts[7] {
		t.Fatalf("skew not applied: counts = %v", counts)
	}
}

func TestPlantedPartitionInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	PlantedPartition(PlantedPartitionConfig{Nodes: 0, Classes: 3})
}

func TestRandomGraphEdgeCount(t *testing.T) {
	g := Random(50, 100, 3)
	if g.NumUndirectedEdges() != 100 {
		t.Fatalf("edges = %d, want 100", g.NumUndirectedEdges())
	}
}

func TestRandomGraphClampsToMax(t *testing.T) {
	g := Random(4, 100, 3)
	if g.NumUndirectedEdges() != 6 {
		t.Fatalf("edges = %d, want 6 (complete K4)", g.NumUndirectedEdges())
	}
}

func TestCOORoundTrip(t *testing.T) {
	g := Random(64, 200, 17)
	data := MarshalCOO(g)
	got, err := UnmarshalCOO(data, g.N())
	if err != nil {
		t.Fatalf("UnmarshalCOO: %v", err)
	}
	if !got.Equal(g) {
		t.Fatal("COO round trip changed the graph")
	}
}

func TestCOOBytesAccounting(t *testing.T) {
	g := Random(100, 300, 19)
	// Two int32 per directed edge + 8 bytes per node for the degree vector.
	want := int64(g.NumDirectedEdges())*8 + int64(100)*8
	if g.COOBytes() != want {
		t.Fatalf("COOBytes = %d, want %d", g.COOBytes(), want)
	}
	if g.COOBytes() >= g.DenseAdjacencyBytes() {
		t.Fatal("COO not smaller than dense for sparse graph")
	}
}

func TestUnmarshalCOORejectsGarbage(t *testing.T) {
	// The header's node count sizes the CSR, so it must be the caller's
	// before anything is built from it: 12 bytes claiming 2³²−1 nodes cost
	// an error, not 32 GB.
	forged := MarshalCOO(New(3, nil))
	binary.LittleEndian.PutUint32(forged[4:], math.MaxUint32)
	cases := map[string][]byte{
		"empty":              {},
		"short":              {1, 2, 3},
		"bad magic":          append([]byte{0, 0, 0, 0}, make([]byte, 8)...),
		"foreign node count": MarshalCOO(New(4, []Edge{{0, 1}})),
		"forged node count":  forged,
	}
	for name, data := range cases {
		if _, err := UnmarshalCOO(data, 3); err == nil {
			t.Errorf("%s: UnmarshalCOO accepted invalid input", name)
		}
	}
}

func TestUnmarshalCOORejectsTruncatedPayload(t *testing.T) {
	g := Random(10, 20, 23)
	data := MarshalCOO(g)
	if _, err := UnmarshalCOO(data[:len(data)-4], g.N()); err == nil {
		t.Fatal("truncated COO accepted")
	}
}

func TestUnmarshalCOORejectsOutOfRangeIndex(t *testing.T) {
	g := New(2, []Edge{{0, 1}})
	data := MarshalCOO(g)
	// Corrupt a column index to point beyond n.
	data[len(data)-4] = 0xFF
	if _, err := UnmarshalCOO(data, g.N()); err == nil {
		t.Fatal("out-of-range COO index accepted")
	}
}

func TestPropCOORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := Random(n, rng.Intn(3*n), seed)
		got, err := UnmarshalCOO(MarshalCOO(g), n)
		return err == nil && got.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
