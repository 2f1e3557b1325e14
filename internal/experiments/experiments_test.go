package experiments

import (
	"strings"
	"testing"

	"gnnvault/internal/attack"
	"gnnvault/internal/core"
	"gnnvault/internal/substitute"
)

// quick runs experiments at a budget suitable for unit tests: one small
// dataset, few epochs. The assertions check the paper's qualitative shapes,
// not absolute numbers.
func quick() Options {
	return Options{Epochs: 40, Datasets: []string{"cora"}, Seed: 1, AttackPairs: 150}
}

func TestTableFormatter(t *testing.T) {
	out := table([]string{"A", "Bee"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A    Bee") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestOptionsNormalise(t *testing.T) {
	o := Options{}.normalise()
	if o.Epochs != 200 || len(o.Datasets) != 6 || o.Seed != 1 || o.AttackPairs != 400 {
		t.Fatalf("normalised = %+v", o)
	}
}

func TestTable1AllDatasets(t *testing.T) {
	rows, text := Table1(Options{})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PaperDenseAMB <= 0 || r.DenseAMB <= 0 {
			t.Errorf("%s: missing dense-A numbers", r.Dataset)
		}
		if r.Nodes >= r.PaperNodes {
			t.Errorf("%s: synthetic should be smaller than the original", r.Dataset)
		}
	}
	if !strings.Contains(text, "cora") || !strings.Contains(text, "DenseA") {
		t.Error("text table incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, text := Table2(quick())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.POrg <= r.PBB {
		t.Errorf("p_org (%v) should exceed p_bb (%v)", r.POrg, r.PBB)
	}
	for _, design := range core.Designs {
		cell, ok := r.Designs[design]
		if !ok {
			t.Fatalf("missing design %s", design)
		}
		if cell.PRec <= r.PBB {
			t.Errorf("%s: p_rec (%v) did not beat p_bb (%v)", design, cell.PRec, r.PBB)
		}
	}
	// θ_rec < θ_bb holds for the series design at any scale; parallel and
	// cascaded inputs can exceed the scaled-down synthetic θ_bb because
	// the mini feature dim (128 vs the paper's 1433) shrinks the backbone
	// far more than the rectifier.
	if r.Designs[core.Series].ThetaRec >= r.ThetaBB {
		t.Errorf("series: θ_rec (%d) should be below θ_bb (%d)",
			r.Designs[core.Series].ThetaRec, r.ThetaBB)
	}
	if r.Designs[core.Series].ThetaRec >= r.Designs[core.Parallel].ThetaRec {
		t.Error("series rectifier should be smaller than parallel")
	}
	if !strings.Contains(text, "Table II") {
		t.Error("missing caption")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, _ := Table3(quick())
	r := rows[0]
	if len(r.Kinds) != 4 {
		t.Fatalf("kinds = %d", len(r.Kinds))
	}
	rand := r.Kinds[substitute.KindRandom]
	knn := r.Kinds[substitute.KindKNN]
	if rand.PBB >= knn.PBB {
		t.Errorf("random backbone (%v) should trail KNN (%v)", rand.PBB, knn.PBB)
	}
	for kind, cell := range r.Kinds {
		if cell.PRec < cell.PBB-0.02 {
			t.Errorf("%s: rectification hurt accuracy (%v → %v)", kind, cell.PBB, cell.PRec)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	rows, _ := Table4(quick())
	if len(rows) != len(attack.Metrics) {
		t.Fatalf("rows = %d, want %d", len(rows), len(attack.Metrics))
	}
	for _, r := range rows {
		if r.MOrg <= r.MGV-0.05 {
			t.Errorf("%s/%s: unprotected AUC (%v) should exceed GNNVault's (%v)",
				r.Dataset, r.Metric, r.MOrg, r.MGV)
		}
		for _, v := range []float64{r.MOrg, r.MGV, r.MBase} {
			if v < 0 || v > 1 {
				t.Errorf("AUC %v out of range", v)
			}
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res, text := Fig4(quick())
	if len(res.RectifierSilhouette) == 0 || len(res.BackboneSilhouette) == 0 {
		t.Fatal("missing silhouette series")
	}
	lastRec := res.RectifierSilhouette[len(res.RectifierSilhouette)-1]
	lastBB := res.BackboneSilhouette[len(res.BackboneSilhouette)-1]
	if lastRec <= lastBB {
		t.Errorf("rectifier silhouette (%v) should exceed backbone's (%v)", lastRec, lastBB)
	}
	for _, csv := range []string{res.OriginalTSNE, res.BackboneTSNE, res.RectifierTSNE} {
		if !strings.HasPrefix(csv, "x,y,label\n") {
			t.Error("t-SNE CSV malformed")
		}
	}
	if !strings.Contains(text, "Fig. 4") {
		t.Error("missing caption")
	}
}

func TestFig5Shape(t *testing.T) {
	// Trim the sweep grids for test speed.
	origK, origTau, origFrac := Fig5KValues, Fig5TauValues, Fig5RandomFracs
	Fig5KValues = []float64{2}
	Fig5TauValues = []float64{0.4}
	Fig5RandomFracs = []float64{0.25, 1.0}
	defer func() { Fig5KValues, Fig5TauValues, Fig5RandomFracs = origK, origTau, origFrac }()

	results, text := Fig5(quick())
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	res := results[0]
	if len(res.KNNK) != 1 || len(res.CosineTau) != 1 || len(res.RandomRatio) != 2 {
		t.Fatalf("sweep sizes wrong: %+v", res)
	}
	// More random edges → worse (or equal) backbone accuracy, the Fig. 5
	// trend.
	if res.RandomRatio[1].PBB > res.RandomRatio[0].PBB+0.1 {
		t.Errorf("more random edges improved the backbone markedly: %v → %v",
			res.RandomRatio[0].PBB, res.RandomRatio[1].PBB)
	}
	if !strings.Contains(text, "Fig. 5") {
		t.Error("missing caption")
	}
}

func TestFig6Shape(t *testing.T) {
	rows, text := Fig6(quick()) // only the cora/M1 pair runs
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 designs", len(rows))
	}
	var series, parallel Fig6Row
	for _, r := range rows {
		if r.Total <= 0 || r.UnprotectedCPU <= 0 {
			t.Errorf("%s: non-positive timings", r.Design)
		}
		if !r.FitsEPC {
			t.Errorf("%s: rectifier should fit the EPC", r.Design)
		}
		switch r.Design {
		case core.Series:
			series = r
		case core.Parallel:
			parallel = r
		}
	}
	if series.Transfer >= parallel.Transfer {
		t.Errorf("series transfer (%v) should be below parallel's (%v)",
			series.Transfer, parallel.Transfer)
	}
	// The paper's memory argument: the smallest (series) rectifier needs
	// far less enclave memory than hosting the whole model would.
	if series.FullModelMemBytes <= series.EnclaveMemBytes {
		t.Errorf("full model (%d B) should need more memory than the series rectifier (%d B)",
			series.FullModelMemBytes, series.EnclaveMemBytes)
	}
	if !strings.Contains(text, "Fig. 6") {
		t.Error("missing caption")
	}
}

func TestExtArchitecturesShape(t *testing.T) {
	opts := quick()
	opts.Datasets = []string{"cora"}
	rows, text := ExtArchitectures(opts)
	if len(rows) != len(core.ConvKinds) {
		t.Fatalf("rows = %d, want %d", len(rows), len(core.ConvKinds))
	}
	for _, r := range rows {
		// The partition strategy must hold for every architecture.
		if r.PRec <= r.PBB {
			t.Errorf("%s: p_rec (%v) did not beat p_bb (%v)", r.Conv, r.PRec, r.PBB)
		}
	}
	if !strings.Contains(text, "sage") || !strings.Contains(text, "gat") {
		t.Error("missing architectures in output")
	}
}

func TestExtLabelOnlyShape(t *testing.T) {
	rows, _ := ExtLabelOnly(quick())
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 surfaces", len(rows))
	}
	// Labels must leak no more than logits would.
	var logitAUC, labelAUC float64
	for _, r := range rows {
		switch {
		case strings.HasPrefix(r.Surface, "rectified logits"):
			logitAUC = r.WorstAUC
		case strings.HasPrefix(r.Surface, "labels only"):
			labelAUC = r.WorstAUC
		}
	}
	if labelAUC > logitAUC+0.02 {
		t.Errorf("labels (%v) leak more than logits (%v)?", labelAUC, logitAUC)
	}
}

func TestExtExtractionShape(t *testing.T) {
	rows, text := ExtExtraction(quick())
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 victims", len(rows))
	}
	for _, r := range rows {
		if r.Fidelity < 0.3 || r.Fidelity > 1 {
			t.Errorf("%s: implausible fidelity %v", r.Victim, r.Fidelity)
		}
	}
	if !strings.Contains(text, "GNNVault (labels only)") {
		t.Error("missing vault victim row")
	}
}

func TestExtStreamingShape(t *testing.T) {
	rows, _ := ExtStreaming(quick())
	if len(rows) != 2*len(core.Designs) {
		t.Fatalf("rows = %d, want a batched and a streamed row per design", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		batched, streamed := rows[i], rows[i+1]
		if streamed.PeakEPCBytes >= batched.PeakEPCBytes {
			t.Errorf("%s peak EPC (%d) should be below %s (%d)",
				streamed.Mode, streamed.PeakEPCBytes, batched.Mode, batched.PeakEPCBytes)
		}
	}
}
