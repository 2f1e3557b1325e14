package core

import (
	"errors"
	"sync"
	"testing"
)

// TestTiledPredictIntoMatchesUntiled is the tiling property at the vault
// level: for every rectifier design and tile heights {1, 7, n-1, n}, a
// tile-streamed plan must produce bit-identical labels to the untiled
// reference — the engine runs the same kernels in the same per-row order,
// only the staging differs.
func TestTiledPredictIntoMatchesUntiled(t *testing.T) {
	for _, design := range Designs {
		design := design
		t.Run(string(design), func(t *testing.T) {
			ds, v := planTestVault(t, design)
			n := ds.X.Rows
			ref, err := v.Plan(n)
			if err != nil {
				t.Fatalf("untiled Plan: %v", err)
			}
			defer ref.Release()
			want, _, err := v.PredictInto(ds.X, ref)
			if err != nil {
				t.Fatalf("untiled PredictInto: %v", err)
			}
			wantCopy := append([]int{}, want...)

			for _, tile := range []int{1, 7, n - 1, n} {
				ws, err := v.PlanWith(n, PlanConfig{TileRows: tile})
				if err != nil {
					t.Fatalf("tile=%d PlanWith: %v", tile, err)
				}
				if got := ws.TileRows(); got != tile {
					ws.Release()
					t.Fatalf("tile=%d: workspace reports TileRows %d", tile, got)
				}
				if ws.EnclaveBytes() >= ref.EnclaveBytes() && tile < n {
					ws.Release()
					t.Fatalf("tile=%d: tiled EPC %d not below untiled %d", tile, ws.EnclaveBytes(), ref.EnclaveBytes())
				}
				got, _, err := v.PredictInto(ds.X, ws)
				if err != nil {
					ws.Release()
					t.Fatalf("tile=%d PredictInto: %v", tile, err)
				}
				for i := range got {
					if got[i] != wantCopy[i] {
						ws.Release()
						t.Fatalf("tile=%d: label[%d] = %d, want %d", tile, i, got[i], wantCopy[i])
					}
				}
				ws.Release()
			}
		})
	}
}

// TestBudgetDerivesTileRowsAndBoundsEPC checks the budget→tileRows
// derivation: the charged enclave bytes of a budgeted plan never exceed
// the budget (whenever the budget admits at least one row), and shrink
// with the budget.
func TestBudgetDerivesTileRowsAndBoundsEPC(t *testing.T) {
	ds, v := planTestVault(t, Series)
	for _, budgetKB := range []int64{64, 256, 1024} {
		budget := budgetKB << 10
		ws, err := v.PlanWith(ds.X.Rows, PlanConfig{EPCBudgetBytes: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if ws.EnclaveBytes() > budget {
			t.Fatalf("budget %d: charged %d bytes", budget, ws.EnclaveBytes())
		}
		if ws.TileRows() < 1 || ws.TileRows() > ds.X.Rows {
			t.Fatalf("budget %d: tileRows %d", budget, ws.TileRows())
		}
		got, _, err := v.PredictInto(ds.X, ws)
		if err != nil {
			t.Fatalf("budget %d PredictInto: %v", budget, err)
		}
		if err := labelsInRange(got, ds.NumClasses); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		ws.Release()
	}
}

// TestTiledPredictIntoAllocFree pins the tiled hot path at zero
// steady-state heap allocations, with the kernel worker budget carried in
// the plan (not the deprecated process global).
func TestTiledPredictIntoAllocFree(t *testing.T) {
	requireAllocFree(t, PlanConfig{TileRows: 256, Workers: 1})
}

// TestTiledPlanBudgetAndIdentity checks a budgeted plan's accounting: it
// must keep its staging tile inside the budget, report positive spill
// traffic, and still produce bit-identical labels to the untiled
// reference.
func TestTiledPlanBudgetAndIdentity(t *testing.T) {
	ds, v := planTestVault(t, Series)
	n := ds.X.Rows
	ref, err := v.Plan(n)
	if err != nil {
		t.Fatalf("untiled Plan: %v", err)
	}
	want, _, err := v.PredictInto(ds.X, ref)
	if err != nil {
		t.Fatalf("untiled PredictInto: %v", err)
	}
	wantCopy := append([]int{}, want...)
	ref.Release()

	const budget = 256 << 10
	ws, err := v.PlanWith(n, PlanConfig{EPCBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Release()
	if got := ws.EnclaveBytes(); got > budget {
		t.Fatalf("charged %d bytes over the %d budget", got, budget)
	}
	if ws.SpillBytes() <= 0 {
		t.Fatal("no spill traffic reported")
	}
	got, _, err := v.PredictInto(ds.X, ws)
	if err != nil {
		t.Fatalf("PredictInto: %v", err)
	}
	for i := range got {
		if got[i] != wantCopy[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], wantCopy[i])
		}
	}
}

// TestTiledConcurrentWorkspaces hammers the tiled hot path from several
// goroutines with *different* tile heights and backbone worker budgets and
// checks every stream still produces the untiled reference labels. Run
// under -race in CI.
func TestTiledConcurrentWorkspaces(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	n := ds.X.Rows
	ref, err := v.Plan(n)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want, _, err := v.PredictInto(ds.X, ref)
	if err != nil {
		t.Fatalf("PredictInto: %v", err)
	}
	wantCopy := append([]int{}, want...)
	ref.Release()

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws, err := v.PlanWith(n, PlanConfig{TileRows: 100 + 57*g, Workers: 1 + g%3})
			if err != nil {
				errs <- err
				return
			}
			defer ws.Release()
			for pass := 0; pass < 3; pass++ {
				got, _, err := v.PredictInto(ds.X, ws)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != wantCopy[i] {
						errs <- errors.New("concurrent tiled labels diverged from reference")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
