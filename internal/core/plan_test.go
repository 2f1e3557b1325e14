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
func TestPredictIntoAllocFree(t *testing.T) {
	requireAllocFree(t, PlanConfig{Workers: 1})
}

// requireAllocFree pins steady-state PredictInto under cfg at zero heap
// allocations, for a parallel vault of every conv kind — first over the
// caller's own features (the backbone runs every pass), then over
// registered ones (every measured pass reads the public-half store). The
// warm-up of the second row is the one publishing pass of the
// registration, which copies the blocks into the store and is exempt.
func requireAllocFree(t *testing.T, cfg PlanConfig) {
	for _, conv := range ConvKinds {
		t.Run(string(conv), func(t *testing.T) {
			ds, v := convTestVault(t, conv, Parallel, 5)
			ws, err := v.PlanWith(ds.X.Rows, cfg)
			if err != nil {
				t.Fatalf("PlanWith: %v", err)
			}
			defer ws.Release()
			for _, registered := range []bool{false, true} {
				if registered {
					if err := v.SetCalibrationFeatures(ds.X); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := v.PredictInto(ds.X, ws); err != nil { // warm-up
					t.Fatalf("warm-up: %v", err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					_, bd, err := v.PredictInto(ds.X, ws)
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
		})
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

func TestPlanRowMismatchRejected(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	if _, err := v.Plan(ds.X.Rows + 1); err == nil {
		t.Fatal("Plan accepted a row count != graph nodes")
	}
	ws, err := v.Plan(ds.X.Rows)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	defer ws.Release()
	bad := mat.New(ds.X.Rows-1, ds.X.Cols)
	if _, _, err := v.PredictInto(bad, ws); err == nil {
		t.Fatal("PredictInto accepted mismatched rows")
	}
	if _, _, err := v.PredictInto(nil, ws); err == nil { // an error, not a nil dereference
		t.Fatal("PredictInto accepted nil features")
	}
	ws2, _ := v.Plan(ds.X.Rows)
	ws2.Release()
	if _, _, err := v.PredictInto(ds.X, ws2); err == nil {
		t.Fatal("PredictInto accepted a released workspace")
	}
}
