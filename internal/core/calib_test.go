package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"gnnvault/internal/enclave"
)

// TestInt8CalibratedOncePerRegistration pins the int8 calibration to its
// registration: the first int8 plan of any kind fills the registration's
// slot, every later plan — direct, tiled, sharded or subgraph, on the
// vault or on a shard of its fleet — reads that one record, and only a
// re-registration starts another. Each plan's admission is its own floor
// against the record's one figure.
func TestInt8CalibratedOncePerRegistration(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	n := ds.X.Rows
	v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Undeploy()
	direct := PlanConfig{Precision: PrecisionInt8, MinAgreement: 0.5}
	tiled := PlanConfig{Precision: PrecisionInt8, MinAgreement: 0.5, TileRows: 97}

	// register registers ds.X on v and returns the fresh, empty record.
	register := func(t *testing.T) *registration {
		t.Helper()
		if err := v.SetCalibrationFeatures(ds.X); err != nil {
			t.Fatal(err)
		}
		reg := v.features.Load()
		if reg.calib.Load() != nil {
			t.Fatal("a fresh registration already holds a calibration")
		}
		return reg
	}
	planFullGraph := func(t *testing.T, cfg PlanConfig) {
		t.Helper()
		ws, err := v.PlanWith(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws.Release()
	}

	t.Run("one-fill-for-every-planner", func(t *testing.T) {
		reg := register(t)
		planFullGraph(t, direct)
		first := reg.calib.Load()
		if first == nil || reg.embs.Load() == nil {
			t.Fatal("the first int8 plan left the calibration or the store empty")
		}
		planFullGraph(t, tiled)
		sub, err := v.PlanSubgraphWith(4, subConfigForTest(), direct)
		if err != nil {
			t.Fatal(err)
		}
		sub.Release()
		if reg.calib.Load() != first {
			t.Fatal("a later plan refilled the registration's calibration")
		}
	})

	t.Run("concurrent-first-plans", func(t *testing.T) {
		register(t)
		var wg sync.WaitGroup
		wss := make([]*Workspace, 2)
		errs := make([]error, 2)
		for i := range wss {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wss[i], errs[i] = v.PlanWith(n, direct)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			defer wss[i].Release()
		}
		// The same scales give bit-identical logits over the same input.
		var logits [2][]float64
		for i, ws := range wss {
			_, scores, _, err := ws.PredictContext(context.Background(), ds.X, true)
			if err != nil {
				t.Fatal(err)
			}
			logits[i] = append([]float64(nil), scores.Data...)
		}
		for j := range logits[0] {
			if math.Float64bits(logits[0][j]) != math.Float64bits(logits[1][j]) {
				t.Fatalf("logit %d: %v and %v from two concurrent first plans", j, logits[0][j], logits[1][j])
			}
		}

		// And the calibration itself, raced directly: both callers get
		// the one record's scales.
		reg := register(t)
		scales := make([][][]float64, 2)
		for i := range scales {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				scales[i], errs[i] = int8Scales(v, reg, nil, nil, direct)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if &scales[0][0] != &scales[1][0] || &scales[0][0] != &reg.calib.Load().scales[0] {
			t.Fatal("two concurrent first calibrations kept different scales")
		}
	})

	t.Run("reregister-refills-bit-equal", func(t *testing.T) {
		reg := register(t)
		planFullGraph(t, direct)
		first := reg.calib.Load()
		reg = register(t)
		planFullGraph(t, tiled)
		again := reg.calib.Load()
		if again == first {
			t.Fatal("a re-registration reused the old registration's calibration")
		}
		if again.agree != first.agree || len(again.scales) != len(first.scales) {
			t.Fatalf("refill: agreement %d over %d values, first fill %d over %d",
				again.agree, len(again.scales), first.agree, len(first.scales))
		}
		for i, s := range first.scales {
			if len(again.scales[i]) != len(s) {
				t.Fatalf("value %d: %d scales, first fill %d", i, len(again.scales[i]), len(s))
			}
			for j, x := range s {
				if math.Float64bits(again.scales[i][j]) != math.Float64bits(x) {
					t.Fatalf("value %d column %d: scale %v, first fill %v", i, j, again.scales[i][j], x)
				}
			}
		}
	})

	t.Run("floors-against-one-figure", func(t *testing.T) {
		reg := register(t)
		planFullGraph(t, direct)
		c := reg.calib.Load()
		figure := float64(c.agree) / float64(n)
		if figure >= 1 {
			t.Fatalf("agreement %d of %d: no floor lies above it", c.agree, n)
		}
		above := PlanConfig{Precision: PrecisionInt8, MinAgreement: math.Nextafter(figure, 2)}
		if _, err := v.PlanWith(n, above); !errors.Is(err, ErrCalibrationFailed) {
			t.Fatalf("floor above the figure: err = %v, want ErrCalibrationFailed", err)
		}
		if _, err := v.PlanSubgraphWith(4, subConfigForTest(), above); !errors.Is(err, ErrCalibrationFailed) {
			t.Fatalf("subgraph floor above the figure: err = %v, want ErrCalibrationFailed", err)
		}
		planFullGraph(t, direct)
		if reg.calib.Load() != c {
			t.Fatal("admitting and refusing plans refilled the calibration")
		}
	})

	t.Run("fleet-shares-one-slot", func(t *testing.T) {
		sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 3)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Undeploy()
		if err := sv.SetCalibrationFeatures(ds.X); err != nil {
			t.Fatal(err)
		}
		reg := sv.features.Load()
		planAll := func() {
			t.Helper()
			ws, err := sv.PlanSharded(n, tiled)
			if err != nil {
				t.Fatal(err)
			}
			ws.Release()
			for s := 0; s < sv.Shards(); s++ {
				sub, err := sv.Shard(s).PlanSubgraphWith(4, subConfigForTest(), direct)
				if err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				sub.Release()
			}
		}
		planAll()
		c := reg.calib.Load()
		if c == nil {
			t.Fatal("the fleet's int8 plans left its registration uncalibrated")
		}
		if err := sv.RecoverShard(1); err != nil {
			t.Fatal(err)
		}
		planAll()
		for s := 0; s < sv.Shards(); s++ {
			if got := sv.Shard(s).features.Load(); got != reg || got.calib.Load() != c {
				t.Fatalf("shard %d does not share the fleet's one calibration after a recovery", s)
			}
		}
	})
}
