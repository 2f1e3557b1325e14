package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
)

// subConfigForTest is the sampling geometry the reduced-precision
// subgraph tests share: seeded, so two workspaces extract identically.
func subConfigForTest() subgraph.Config {
	return subgraph.Config{Hops: 2, Fanout: 6, Seed: 3}
}

func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"": PrecisionFP64, "fp64": PrecisionFP64, "f64": PrecisionFP64, "Float64": PrecisionFP64,
		"int8": PrecisionInt8, "I8": PrecisionInt8,
	}
	for s, want := range cases {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// fp32 was a tier once; it is refused like any other unknown name,
	// by an error that lists exactly the tiers there are.
	for _, s := range []string{"fp16", "int4", "double", "quantized", "fp32", "F32", "float32"} {
		_, err := ParsePrecision(s)
		if err == nil {
			t.Fatalf("ParsePrecision(%q) accepted, want refusal", s)
		}
		if !strings.HasSuffix(err.Error(), "(want fp64 or int8)") {
			t.Fatalf("ParsePrecision(%q): %q does not name exactly fp64 and int8", s, err)
		}
	}
	if PrecisionFP64.ElemBytes() != 8 || PrecisionInt8.ElemBytes() != 1 {
		t.Fatal("ElemBytes mismatch")
	}
}

// TestPlanPrecisionAgainstReference is the end-to-end admission +
// accuracy test on cora: calibrated int8 plans must agree with the fp64
// reference labels on ≥99% of nodes — the same floor plan admission
// itself enforces. The tier is exercised direct and tiled, and tiled
// output must equal direct output bit-for-bit.
func TestPlanPrecisionAgainstReference(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("SetCalibrationFeatures: %v", err)
	}
	ref, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("fp64 Predict: %v", err)
	}
	labelsFor := func(cfg PlanConfig) []int {
		t.Helper()
		ws, err := v.PlanWith(ds.X.Rows, cfg)
		if err != nil {
			t.Fatalf("PlanWith(%+v): %v", cfg, err)
		}
		defer ws.Release()
		got, _, err := v.PredictInto(ds.X, ws)
		if err != nil {
			t.Fatalf("PredictInto(%+v): %v", cfg, err)
		}
		out := make([]int, len(got))
		copy(out, got)
		return out
	}
	agreement := func(got []int) float64 {
		agree := 0
		for i := range got {
			if got[i] == ref[i] {
				agree++
			}
		}
		return float64(agree) / float64(len(ref))
	}

	direct := labelsFor(PlanConfig{Precision: PrecisionInt8})
	tiled := labelsFor(PlanConfig{Precision: PrecisionInt8, TileRows: 97})
	for i := range direct {
		if direct[i] != tiled[i] {
			t.Fatalf("int8: tiled label[%d] = %d != direct %d", i, tiled[i], direct[i])
		}
	}
	if a := agreement(direct); a < 0.99 {
		t.Fatalf("int8 agreement %.4f, want >= 0.99", a)
	}
}

// TestReducedPlansShrinkBytes pins the accounting the int8 tier exists
// for: payload and (tiled) EPC/spill scale with the element width.
func TestReducedPlansShrinkBytes(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("SetCalibrationFeatures: %v", err)
	}
	plan := func(cfg PlanConfig) *Workspace {
		t.Helper()
		ws, err := v.PlanWith(ds.X.Rows, cfg)
		if err != nil {
			t.Fatalf("PlanWith(%+v): %v", cfg, err)
		}
		return ws
	}
	const budget = 1 << 20
	f64 := plan(PlanConfig{EPCBudgetBytes: budget})
	i8 := plan(PlanConfig{EPCBudgetBytes: budget, Precision: PrecisionInt8})
	defer f64.Release()
	defer i8.Release()

	if i8.PayloadBytes()*8 != f64.PayloadBytes() {
		t.Fatalf("payloads fp64=%d int8=%d, want an exact 8x ratio", f64.PayloadBytes(), i8.PayloadBytes())
	}
	// Same budget buys proportionally taller tiles, so per-call spill
	// traffic (rows × width × elem bytes summed over spilled values)
	// shrinks by the element width: int8 must spill ≥4× less than fp64.
	if i8.SpillBytes()*4 > f64.SpillBytes() {
		t.Fatalf("int8 spill %d vs fp64 %d, want >= 4x reduction", i8.SpillBytes(), f64.SpillBytes())
	}
}

// TestInt8PlanRequiresCalibration: an int8 plan with no registered
// features must refuse with the named error — and the refusal must not
// read as EPC pressure, so the registry never evicts over it.
func TestInt8PlanRequiresCalibration(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	_, err := v.PlanWith(ds.X.Rows, PlanConfig{Precision: PrecisionInt8})
	if !errors.Is(err, ErrCalibrationRequired) {
		t.Fatalf("int8 plan without features: %v, want ErrCalibrationRequired", err)
	}
	if _, err := v.PlanSubgraphWith(4, subConfigForTest(), PlanConfig{Precision: PrecisionInt8}); !errors.Is(err, ErrCalibrationRequired) {
		t.Fatalf("int8 subgraph plan without features: %v, want ErrCalibrationRequired", err)
	}
}

// TestAgreementFloorRefusesPlan: a floor the plan does not reach — every
// label, on a vault whose int8 plan flips some — turns admission into a
// refusal with the distinct calibration error.
func TestAgreementFloorRefusesPlan(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("SetCalibrationFeatures: %v", err)
	}
	_, err := v.PlanWith(ds.X.Rows, PlanConfig{Precision: PrecisionInt8, MinAgreement: 1})
	if !errors.Is(err, ErrCalibrationFailed) {
		t.Fatalf("unreachable floor: %v, want ErrCalibrationFailed", err)
	}
}

// TestPlanConfigOutOfRangeRefused: every planner refuses an out-of-range
// PlanConfig field by name, before planning anything — a negative tile
// height or budget is not an untiled plan, a NaN or negative floor not
// the default one, and a floor above 1 not an accuracy failure.
func TestPlanConfigOutOfRangeRefused(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("SetCalibrationFeatures: %v", err)
	}
	sv, err := DeploySharded(v.Backbone, v.rectifier, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Undeploy()
	n := ds.X.Rows
	for _, c := range []struct {
		field string
		cfg   PlanConfig
	}{
		{"precision", PlanConfig{Precision: PrecisionInt8 + 1}},
		{"EPCBudgetBytes", PlanConfig{EPCBudgetBytes: -1}},
		{"TileRows", PlanConfig{TileRows: -7}},
		{"MinAgreement", PlanConfig{Precision: PrecisionInt8, MinAgreement: -0.5}},
		{"MinAgreement", PlanConfig{Precision: PrecisionInt8, MinAgreement: math.NaN()}},
		{"MinAgreement", PlanConfig{Precision: PrecisionInt8, MinAgreement: 1.5}},
	} {
		used := v.Enclave.EPCUsed()
		_, err1 := v.PlanWith(n, c.cfg)
		_, err2 := v.PlanSubgraphWith(4, subConfigForTest(), c.cfg)
		_, err3 := sv.PlanSharded(n, c.cfg)
		for _, err := range []error{err1, err2, err3} {
			if err == nil || errors.Is(err, ErrCalibrationFailed) || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("%+v: err = %v, want a config error naming %s", c.cfg, err, c.field)
			}
		}
		if got := v.Enclave.EPCUsed(); got != used {
			t.Fatalf("%+v: refused plans left %d B of EPC in use, had %d", c.cfg, got, used)
		}
	}
}

// TestCalibrationFeatureValidation rejects shape mismatches up front.
func TestCalibrationFeatureValidation(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	bad := ds.X.ViewRows(0, ds.X.Rows-1, &mat.Matrix{})
	if err := v.SetCalibrationFeatures(bad); err == nil {
		t.Fatal("row-mismatched calibration features accepted")
	}
	if err := v.SetCalibrationFeatures(nil); err != nil {
		t.Fatalf("clearing calibration features: %v", err)
	}
}

// TestSubgraphPlanReducedPrecision: the subgraph planner admits reduced
// tiers (full-graph calibration) and serves in-range labels; with the
// same sampling seed, int8 queries mostly agree with the fp64 subgraph
// path. The floor here is looser than the full-graph 99% gate: subgraph
// serving is already approximate (truncated, sampled receptive fields
// shift logits toward ties), so quantization flips compound with
// sampling noise — the calibrated guarantee lives in plan admission,
// which checks the full-graph machine against the fp64 reference.
func TestSubgraphPlanReducedPrecision(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("SetCalibrationFeatures: %v", err)
	}
	scfg := subConfigForTest()
	ref, err := v.PlanSubgraphWith(4, scfg, PlanConfig{})
	if err != nil {
		t.Fatalf("fp64 subgraph plan: %v", err)
	}
	defer ref.Release()
	red, err := v.PlanSubgraphWith(4, scfg, PlanConfig{Precision: PrecisionInt8})
	if err != nil {
		t.Fatalf("int8 subgraph plan: %v", err)
	}
	defer red.Release()
	if red.EnclaveBytes() >= ref.EnclaveBytes() {
		t.Fatalf("int8 subgraph EPC %d not below fp64 %d", red.EnclaveBytes(), ref.EnclaveBytes())
	}
	total, agree := 0, 0
	for q := 0; q < 50; q++ {
		seeds := []int{(q * 53) % ds.Graph.N(), (q*97 + 1) % ds.Graph.N()}
		if seeds[0] == seeds[1] {
			continue
		}
		want, _, err := v.PredictNodesInto(ds.X, seeds, ref)
		if err != nil {
			t.Fatalf("fp64 query %d: %v", q, err)
		}
		wantCopy := append([]int(nil), want...)
		got, _, err := v.PredictNodesInto(ds.X, seeds, red)
		if err != nil {
			t.Fatalf("int8 query %d: %v", q, err)
		}
		for i := range got {
			total++
			if got[i] == wantCopy[i] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("int8 subgraph agreement %.4f over %d labels, want >= 0.8", frac, total)
	}
}
