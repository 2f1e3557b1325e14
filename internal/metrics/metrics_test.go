package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gnnvault/internal/mat"
)

func TestSilhouettePerfectClusters(t *testing.T) {
	// Two tight, far-apart clusters → silhouette near 1.
	x := mat.FromSlice(6, 2, []float64{
		0, 0, 0.1, 0, 0, 0.1,
		10, 10, 10.1, 10, 10, 10.1,
	})
	labels := []int{0, 0, 0, 1, 1, 1}
	if s := Silhouette(x, labels); s < 0.95 {
		t.Fatalf("silhouette = %v, want ≈ 1", s)
	}
}

func TestSilhouetteRandomLabelsNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.RandNormal(rng, 120, 4, 0, 1)
	labels := make([]int, 120)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	if s := Silhouette(x, labels); math.Abs(s) > 0.1 {
		t.Fatalf("silhouette on random labels = %v, want ≈ 0", s)
	}
}

func TestSilhouetteSwappedClustersNegative(t *testing.T) {
	// Deliberately wrong labels → negative score.
	x := mat.FromSlice(4, 2, []float64{0, 0, 0.1, 0, 10, 10, 10.1, 10})
	labels := []int{0, 1, 0, 1}
	if s := Silhouette(x, labels); s >= 0 {
		t.Fatalf("silhouette with crossed labels = %v, want < 0", s)
	}
}

func TestSilhouetteSingleClass(t *testing.T) {
	x := mat.FromSlice(3, 1, []float64{1, 2, 3})
	if s := Silhouette(x, []int{0, 0, 0}); s != 0 {
		t.Fatalf("single class silhouette = %v, want 0", s)
	}
}

func TestSilhouetteEmpty(t *testing.T) {
	if s := Silhouette(mat.New(0, 3), nil); s != 0 {
		t.Fatalf("empty silhouette = %v", s)
	}
}

func TestSilhouetteSingletonCluster(t *testing.T) {
	x := mat.FromSlice(3, 1, []float64{0, 0.1, 5})
	// Must not panic or NaN; singleton contributes 0.
	s := Silhouette(x, []int{0, 0, 1})
	if math.IsNaN(s) {
		t.Fatal("NaN silhouette with singleton cluster")
	}
}

func TestSilhouettePanics(t *testing.T) {
	cases := map[string]func(){
		"len mismatch":   func() { Silhouette(mat.New(2, 2), []int{0}) },
		"negative label": func() { Silhouette(mat.New(2, 2), []int{0, -1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestROCAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	pos := []bool{true, true, false, false}
	if auc := ROCAUC(scores, pos); auc != 1 {
		t.Fatalf("AUC = %v, want 1", auc)
	}
}

func TestROCAUCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	pos := []bool{true, true, false, false}
	if auc := ROCAUC(scores, pos); auc != 0 {
		t.Fatalf("AUC = %v, want 0", auc)
	}
}

func TestROCAUCAllTied(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	pos := []bool{true, false, true, false}
	if auc := ROCAUC(scores, pos); auc != 0.5 {
		t.Fatalf("AUC with ties = %v, want 0.5", auc)
	}
}

func TestROCAUCDegenerateClasses(t *testing.T) {
	if auc := ROCAUC([]float64{1, 2}, []bool{true, true}); auc != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", auc)
	}
}

func TestROCAUCKnownValue(t *testing.T) {
	// Hand-computed: pos ranks {4, 2}, U = 6 - 3 = 3, AUC = 3/4.
	scores := []float64{0.9, 0.3, 0.5, 0.1}
	pos := []bool{true, true, false, false}
	if auc := ROCAUC(scores, pos); math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", auc)
	}
}

func TestROCAUCMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ROCAUC([]float64{1}, []bool{true, false})
}

func TestPropROCAUCComplement(t *testing.T) {
	// Negating scores flips AUC to 1-AUC.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		scores := make([]float64, n)
		pos := make([]bool, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			pos[i] = rng.Intn(2) == 0
			if pos[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		neg := make([]float64, n)
		for i, s := range scores {
			neg[i] = -s
		}
		return math.Abs(ROCAUC(scores, pos)+ROCAUC(neg, pos)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropROCAUCRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		scores := make([]float64, n)
		pos := make([]bool, n)
		for i := range scores {
			scores[i] = rng.Float64()
			pos[i] = rng.Intn(2) == 0
		}
		auc := ROCAUC(scores, pos)
		return auc >= -1e-12 && auc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTSNESeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 60
	x := mat.New(n, 5)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		row := x.Row(i)
		for j := range row {
			row[j] = 0.2 * rng.NormFloat64()
		}
		row[c] += 4
	}
	y := TSNE(x, TSNEConfig{Perplexity: 10, Iterations: 250, Seed: 2})
	if y.Rows != n || y.Cols != 2 {
		t.Fatalf("TSNE output shape %s", y.Shape())
	}
	// The 2-D embedding should preserve the clustering: silhouette in the
	// embedding must be clearly positive.
	if s := Silhouette(y, labels); s < 0.3 {
		t.Fatalf("t-SNE silhouette = %v, want > 0.3", s)
	}
}

func TestTSNEEmptyInput(t *testing.T) {
	y := TSNE(mat.New(0, 3), TSNEConfig{})
	if y.Rows != 0 || y.Cols != 2 {
		t.Fatalf("empty TSNE shape = %s", y.Shape())
	}
}

func TestTSNEDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.RandNormal(rng, 20, 4, 0, 1)
	cfg := TSNEConfig{Perplexity: 5, Iterations: 50, Seed: 7}
	if !TSNE(x, cfg).Equal(TSNE(x, cfg)) {
		t.Fatal("TSNE not deterministic for fixed seed")
	}
}

func TestTSNEOutputCentred(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := mat.RandNormal(rng, 30, 3, 5, 1)
	y := TSNE(x, TSNEConfig{Perplexity: 8, Iterations: 60, Seed: 1})
	cs := y.ColSums()
	if math.Abs(cs[0]) > 1e-6 || math.Abs(cs[1]) > 1e-6 {
		t.Fatalf("embedding not centred: %v", cs)
	}
}

func TestTSNEToCSV(t *testing.T) {
	y := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	csv := TSNEToCSV(y, []int{0, 1})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || lines[0] != "x,y,label" {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.HasPrefix(lines[1], "1.0000,2.0000,0") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestTSNEToCSVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong shape did not panic")
		}
	}()
	TSNEToCSV(mat.New(2, 3), []int{0, 1})
}
