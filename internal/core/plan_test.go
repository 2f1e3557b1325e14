package core

import (
	"errors"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
	"gnnvault/internal/mat"
	"gnnvault/internal/substitute"
)

// planTestVault trains a small vault quickly for plan/workspace tests.
func planTestVault(t testing.TB, design RectifierDesign) (*datasets.Dataset, *Vault) {
	t.Helper()
	return convTestVault(t, "", design, 20)
}

// convTestVault is planTestVault with the conv kind of both halves and
// the epoch count chosen.
func convTestVault(t testing.TB, conv ConvKind, design RectifierDesign, epochs int) (*datasets.Dataset, *Vault) {
	t.Helper()
	ds := datasets.Load("cora")
	cfg := TrainConfig{Epochs: epochs, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := SpecForDataset("cora")
	spec.Conv = conv
	bb := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := TrainRectifier(ds, bb, design, cfg)
	v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return ds, v
}

func TestPredictIntoMatchesPredict(t *testing.T) {
	for _, design := range Designs {
		design := design
		t.Run(string(design), func(t *testing.T) {
			ds, v := planTestVault(t, design)
			want, _, err := v.Predict(ds.X)
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			ws, err := v.Plan(ds.X.Rows)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			defer ws.Release()
			for pass := 0; pass < 3; pass++ { // reuse must be stable
				got, bd, err := v.PredictInto(ds.X, ws)
				if err != nil {
					t.Fatalf("PredictInto pass %d: %v", pass, err)
				}
				if len(got) != len(want) {
					t.Fatalf("pass %d: %d labels, want %d", pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pass %d: label[%d] = %d, want %d", pass, i, got[i], want[i])
					}
				}
				if bd.ECalls != 1 {
					t.Fatalf("pass %d: %d ECALLs, want 1", pass, bd.ECalls)
				}
				if bd.BytesIn == 0 || bd.TransferTime <= 0 {
					t.Fatalf("pass %d: transfer not modelled: %+v", pass, bd)
				}
			}
		})
	}
}

// TestCompiledBackboneMatchesEmbeddings pins the compiled (fused)
// backbone program to the reference nn forward: the block embeddings a
// plan transfers must match what Backbone.Embeddings computes — to the
// bit, the program running the same kernels in the same order — and a
// program compiled for a design that reads fewer blocks computes fewer:
// the series rectifier takes the last hidden block only, so its backbone
// drops the logits conv (two ops) that parallel and cascaded keep, and
// asking its machine for that block panics.
func TestCompiledBackboneMatchesEmbeddings(t *testing.T) {
	ops := map[RectifierDesign]int{}
	for _, design := range Designs {
		ds, v := planTestVault(t, design)
		want := v.Backbone.Embeddings(ds.X)
		needed := v.rectifier.RequiredEmbeddings()
		prog, blockVals := v.Backbone.compileBackbone(ds.X.Rows, nil, needed)
		ops[design] = len(prog.Ops())
		mach, err := prog.NewMachine(exec.Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: backbone machine: %v", design, err)
		}
		out := mach.Run(ds.X.Rows, []*mat.Matrix{ds.X}, nil)
		if len(blockVals) != len(want) {
			t.Fatalf("%s: %d blocks, want %d", design, len(blockVals), len(want))
		}
		for _, i := range needed {
			if !mach.Value(blockVals[i]).Equal(want[i]) {
				t.Fatalf("%s: block %d disagrees", design, i)
			}
		}
		if last := needed[len(needed)-1]; out != mach.Value(blockVals[last]) {
			t.Fatalf("%s: program output is not the last needed block %d", design, last)
		}
		if design == Series {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Machine.Value on the eliminated logits block did not panic")
					}
				}()
				mach.Value(blockVals[len(blockVals)-1])
			}()
		}
	}
	if ops[Parallel] != ops[Cascaded] || ops[Series] != ops[Parallel]-2 {
		t.Fatalf("backbone ops parallel %d cascaded %d series %d, want series two fewer", ops[Parallel], ops[Cascaded], ops[Series])
	}
}

// TestPredictIntoAllocFree is the hot-path regression test: after warm-up,
// steady-state PredictInto must perform zero heap allocations. Parallel
// kernels are pinned to one worker through the plan's own budget —
// goroutine spawns allocate — rather than the deprecated process-global
// knob; the enclave side is single-threaded (serial kernels) by
// construction.
//
// A one-shard fleet runs the same pass body, so it is held to the same
// pin: which entry point planned a one-part workspace does not matter.
func TestPredictIntoAllocFree(t *testing.T) {
	requireAllocFree(t, PlanConfig{Workers: 1})
	t.Run("one-shard", func(t *testing.T) {
		ds, v := convTestVault(t, ConvGCN, Parallel, 5)
		sv, err := DeploySharded(v.Backbone, v.rectifier, ds.Graph, enclave.DefaultCostModel(), 1)
		if err != nil {
			t.Fatalf("DeploySharded: %v", err)
		}
		defer sv.Undeploy()
		ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{Workers: 1})
		if err != nil {
			t.Fatalf("PlanSharded: %v", err)
		}
		defer ws.Release()
		requirePassAllocFree(t, ds.X, sv.SetCalibrationFeatures, func(x *mat.Matrix) (InferenceBreakdown, error) {
			_, bd, err := sv.PredictInto(x, ws)
			return bd, err
		})
	})
}

// requireAllocFree pins steady-state PredictInto under cfg at zero heap
// allocations, for a parallel vault of every conv kind.
func requireAllocFree(t *testing.T, cfg PlanConfig) {
	for _, conv := range ConvKinds {
		t.Run(string(conv), func(t *testing.T) {
			ds, v := convTestVault(t, conv, Parallel, 5)
			ws, err := v.PlanWith(ds.X.Rows, cfg)
			if err != nil {
				t.Fatalf("PlanWith: %v", err)
			}
			defer ws.Release()
			requirePassAllocFree(t, ds.X, v.SetCalibrationFeatures, func(x *mat.Matrix) (InferenceBreakdown, error) {
				_, bd, err := v.PredictInto(x, ws)
				return bd, err
			})
		})
	}
}

// requirePassAllocFree pins a planned full-graph pass at zero heap
// allocations — first over the caller's own features x (the backbone runs
// every pass), then over x registered through register (every measured
// pass reads the public-half store). The warm-up of the second row is the
// one publishing pass of the registration, which copies the blocks into
// the store and is exempt.
func requirePassAllocFree(t *testing.T, x *mat.Matrix, register func(*mat.Matrix) error, pass func(*mat.Matrix) (InferenceBreakdown, error)) {
	t.Helper()
	for _, registered := range []bool{false, true} {
		if registered {
			if err := register(x); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pass(x); err != nil { // warm-up
			t.Fatalf("warm-up: %v", err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			bd, err := pass(x)
			if err != nil {
				t.Fatalf("PredictInto: %v", err)
			}
			if bd.BackboneReused != registered {
				t.Fatalf("registered %v: BackboneReused = %v", registered, bd.BackboneReused)
			}
		})
		if allocs > 0 {
			t.Fatalf("registered %v: steady-state PredictInto allocates %.1f objects/op, want 0", registered, allocs)
		}
	}
}

// TestPredictIntoAllocFreeInt8 is the int8 row of the same pin, direct
// and tiled: registered passes read the store and keep the boundary codes
// the machine holds (no backbone, no quantisation), the caller's own copy
// runs and quantises everything — 0 allocs/op either way.
func TestPredictIntoAllocFreeInt8(t *testing.T) {
	ds, v := convTestVault(t, "", Parallel, 5)
	defer v.Undeploy()
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	own := ds.X.Clone()
	for _, cfg := range []PlanConfig{
		{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5},
		{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5, TileRows: 256},
	} {
		ws, err := v.PlanWith(ds.X.Rows, cfg)
		if err != nil {
			t.Fatalf("PlanWith(%+v): %v", cfg, err)
		}
		for _, x := range []*mat.Matrix{ds.X, own} {
			registered := x == ds.X
			if _, _, err := v.PredictInto(x, ws); err != nil { // warm-up
				t.Fatalf("warm-up: %v", err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				_, bd, err := v.PredictInto(x, ws)
				if err != nil {
					t.Fatalf("PredictInto: %v", err)
				}
				if bd.BackboneReused != registered {
					t.Fatalf("registered %v: BackboneReused = %v", registered, bd.BackboneReused)
				}
			})
			if allocs > 0 {
				t.Fatalf("tile rows %d, registered %v: steady-state int8 PredictInto allocates %.1f objects/op, want 0", cfg.TileRows, registered, allocs)
			}
		}
		ws.Release()
	}
}

func TestPlanChargesEPCOnceAndReleaseReturnsIt(t *testing.T) {
	ds, v := planTestVault(t, Series)
	base := v.Enclave.EPCUsed()
	ws, err := v.Plan(ds.X.Rows)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	charged := v.Enclave.EPCUsed() - base
	if charged != ws.EnclaveBytes() || charged <= 0 {
		t.Fatalf("EPC charged %d, workspace reports %d", charged, ws.EnclaveBytes())
	}
	for i := 0; i < 3; i++ {
		if _, _, err := v.PredictInto(ds.X, ws); err != nil {
			t.Fatalf("PredictInto: %v", err)
		}
		if got := v.Enclave.EPCUsed(); got != base+charged {
			t.Fatalf("per-call EPC drift: %d, want %d", got, base+charged)
		}
	}
	ws.Release()
	ws.Release() // idempotent
	if got := v.Enclave.EPCUsed(); got != base {
		t.Fatalf("EPC after release %d, want %d", got, base)
	}
}

func TestPlanFailsWhenEPCExhausted(t *testing.T) {
	ds := datasets.Load("cora")
	cfg := TrainConfig{Epochs: 5, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := SpecForDataset("cora")
	bb := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := TrainRectifier(ds, bb, Parallel, cfg)
	cost := enclave.DefaultCostModel()
	v, err := Deploy(bb, rec, ds.Graph, cost)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// Exhaust the EPC with workspaces until Plan refuses.
	persistent := v.Enclave.EPCUsed()
	perWS := int64(0)
	var held []*Workspace
	defer func() {
		for _, ws := range held {
			ws.Release()
		}
	}()
	for i := 0; i < 1<<16; i++ {
		ws, err := v.Plan(ds.X.Rows)
		if err != nil {
			if !errors.Is(err, enclave.ErrEPCExhausted) {
				t.Fatalf("Plan failed with %v, want ErrEPCExhausted", err)
			}
			if perWS == 0 {
				t.Fatal("first Plan already failed")
			}
			return
		}
		perWS = ws.EnclaveBytes()
		held = append(held, ws)
		if persistent+int64(i+1)*perWS > v.Enclave.EPCLimit() {
			t.Fatalf("Plan succeeded beyond the EPC limit (%d workspaces)", i+1)
		}
	}
	t.Fatal("EPC never exhausted")
}

// TestPlanRowMismatchRejected runs the plan/predict guard-rail table
// against a Vault; TestShardedPlanValidation runs it against a 2-shard
// ShardedVault.
func TestPlanRowMismatchRejected(t *testing.T) { runPlanGuardRails(t, 0) }

// runPlanGuardRails is the one guard-rail table of the two full-graph
// front doors, a Vault (door 0) and a 2-shard ShardedVault (door 1) of the
// same model, which plan and answer through the one planner and pass body.
// Every row runs against door `at`; the other door is the foreign owner of
// the "workspace of a different owner" row. The last row undeploys door at.
func runPlanGuardRails(t *testing.T, at int) {
	ds, bb, rec := shardTestModel(t, Parallel)
	rows := ds.X.Rows
	type door struct {
		name     string
		plan     func(rows int, cfg PlanConfig) (*Workspace, error)
		predict  func(x *mat.Matrix, ws *Workspace) error
		epc      func() int64 // EPC in use, summed over the door's enclaves
		undeploy func()
	}
	v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer v.Undeploy()
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatalf("deploy sharded: %v", err)
	}
	defer sv.Undeploy()
	doors := []door{
		{"vault", v.PlanWith,
			func(x *mat.Matrix, ws *Workspace) error { _, _, err := v.PredictInto(x, ws); return err },
			v.Enclave.EPCUsed, v.Undeploy},
		{"2-shard", sv.PlanSharded,
			func(x *mat.Matrix, ws *Workspace) error { _, _, err := sv.PredictInto(x, ws); return err },
			func() int64 { return sv.Shard(0).Enclave.EPCUsed() + sv.Shard(1).Enclave.EPCUsed() }, sv.Undeploy},
	}
	mustPlan := func(t *testing.T, d door) *Workspace {
		t.Helper()
		ws, err := d.plan(rows, PlanConfig{})
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		return ws
	}
	refused := func(t *testing.T, d door, x *mat.Matrix, what string) {
		t.Helper()
		ws := mustPlan(t, d)
		defer ws.Release()
		if err := d.predict(x, ws); err == nil { // an error, not a panic
			t.Fatalf("PredictInto accepted %s", what)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, d, other door)
	}{
		{"row mismatch at plan", func(t *testing.T, d, _ door) {
			if _, err := d.plan(rows+1, PlanConfig{}); err == nil {
				t.Fatal("plan accepted a row count != graph nodes")
			}
		}},
		{"int8 without registered features", func(t *testing.T, d, _ door) {
			if _, err := d.plan(rows, PlanConfig{Precision: PrecisionInt8}); !errors.Is(err, ErrCalibrationRequired) {
				t.Fatalf("int8 without calibration: %v, want ErrCalibrationRequired", err)
			}
		}},
		{"nil features", func(t *testing.T, d, _ door) { refused(t, d, nil, "nil features") }},
		{"wrong-row features", func(t *testing.T, d, _ door) {
			refused(t, d, mat.New(rows-1, ds.X.Cols), "mismatched rows")
		}},
		{"wrong-width features", func(t *testing.T, d, _ door) {
			refused(t, d, mat.New(rows, ds.X.Cols+1), "features wider than FeatureDim")
		}},
		{"workspace of a different owner", func(t *testing.T, d, other door) {
			ws := mustPlan(t, other)
			defer ws.Release()
			if err := d.predict(ds.X, ws); err == nil {
				t.Fatalf("PredictInto accepted a workspace planned on the %s", other.name)
			}
		}},
		{"released workspace", func(t *testing.T, d, _ door) {
			ws := mustPlan(t, d)
			ws.Release()
			if err := d.predict(ds.X, ws); err == nil {
				t.Fatal("PredictInto accepted a released workspace")
			}
		}},
		{"release twice", func(t *testing.T, d, _ door) {
			base := d.epc()
			ws := mustPlan(t, d)
			if d.epc() == base {
				t.Fatal("plan charged no EPC")
			}
			ws.Release()
			ws.Release()
			if got := d.epc(); got != base {
				t.Fatalf("EPC after two releases %d, want %d", got, base)
			}
		}},
		{"plan after undeploy", func(t *testing.T, d, _ door) {
			d.undeploy()
			base := d.epc()
			if ws, err := d.plan(rows, PlanConfig{}); err == nil {
				ws.Release()
				t.Fatal("plan on an undeployed deployment accepted")
			}
			if got := d.epc(); got != base {
				t.Fatalf("refused plan left %d EPC bytes charged", got-base)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, doors[at], doors[1-at]) })
	}
}
