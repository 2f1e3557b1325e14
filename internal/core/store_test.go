package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
)

// rotateRows moves every row of x one place up (row 0 to the end), in
// place: a cheap edit that changes most nodes' answers.
func rotateRows(x *mat.Matrix) {
	first := append([]float64(nil), x.Row(0)...)
	copy(x.Data, x.Data[x.Cols:])
	copy(x.Row(x.Rows-1), first)
}

// requireLabels fails unless got equals want label for label.
func requireLabels(t *testing.T, what string, got, want []int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: label[%d] = %d, want %d", what, i, got[i], want[i])
			return
		}
	}
}

// TestRegisteredFeaturesNeverMixed is the epoch fence of the public-half
// store, run under -race in CI: several workspaces of one deployment
// predict concurrently over matrix A or matrix B, chosen per call, while
// another goroutine keeps re-registering A, B and nothing. Every answer
// must be the uncached reference (Vault.Predict, the nn path) for the
// matrix that call passed — never the other's, whatever was registered or
// published while it ran. Once on a Vault, once on a 3-shard fleet.
func TestRegisteredFeaturesNeverMixed(t *testing.T) {
	ds, v := convTestVault(t, "", Parallel, 5)
	defer v.Undeploy()
	var err error
	a, b := ds.X, ds.X.Clone()
	rotateRows(b)
	inputs := [2]*mat.Matrix{a, b}
	var want [2][]int
	for k, x := range inputs {
		if want[k], _, err = v.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	differ := 0
	for i := range want[0] {
		if want[0][i] != want[1][i] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("A and B have the same answers: a mixed pass would go unseen")
	}

	const workers, passes = 4, 24
	hammer := func(t *testing.T, register func(*mat.Matrix) error, predict func(w int, x *mat.Matrix) ([]int, InferenceBreakdown, error)) {
		var done, reused atomic.Int64
		stop := make(chan struct{})
		var registrar sync.WaitGroup
		registrar.Add(1)
		go func() {
			defer registrar.Done()
			// One re-registration per two rounds of the workers' passes, so
			// a registration lives long enough to be filled and then read.
			for i, next := 0, int64(0); ; i++ {
				if err := register([]*mat.Matrix{a, b, nil}[i%3]); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				for next += 2 * workers; done.Load() < next; {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < passes; i++ {
					k := (w + i*(w+1)) % 2
					got, bd, err := predict(w, inputs[k])
					if err != nil {
						t.Errorf("worker %d pass %d: %v", w, i, err)
						return
					}
					requireLabels(t, "concurrent pass", got, want[k])
					if bd.BackboneReused {
						reused.Add(1)
					}
					done.Add(1)
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		registrar.Wait()
		t.Logf("%d of %d passes reused the store", reused.Load(), workers*passes)
		if reused.Load() == 0 {
			t.Error("no pass reused the store: the hammer never exercised the read path")
		}
	}

	t.Run("vault", func(t *testing.T) {
		wss := make([]*Workspace, workers)
		for w := range wss {
			if wss[w], err = v.PlanWith(ds.X.Rows, PlanConfig{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			defer wss[w].Release()
		}
		hammer(t, v.SetCalibrationFeatures, func(w int, x *mat.Matrix) ([]int, InferenceBreakdown, error) {
			return v.PredictInto(x, wss[w])
		})
	})
	t.Run("fleet", func(t *testing.T) {
		sv, err := DeploySharded(v.Backbone, v.rectifier, ds.Graph, enclave.DefaultCostModel(), 3)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Undeploy()
		wss := make([]*ShardedWorkspace, workers)
		for w := range wss {
			if wss[w], err = sv.PlanSharded(ds.X.Rows, PlanConfig{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			defer wss[w].Release()
		}
		hammer(t, sv.SetCalibrationFeatures, func(w int, x *mat.Matrix) ([]int, InferenceBreakdown, error) {
			return sv.PredictInto(x, wss[w])
		})
	})
}

// TestReregisterPublishesInPlaceEdit is the hammer's sequential twin and
// the documented way to publish a feature update: edit the registered
// matrix in place, register it again, and the next pass answers for the
// new contents — the re-registration started an empty store even though
// the pointer did not change.
func TestReregisterPublishesInPlaceEdit(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	defer v.Undeploy()
	x := ds.X.Clone()
	ws, err := v.Plan(x.Rows)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Release()
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			rotateRows(x)
		}
		if err := v.SetCalibrationFeatures(x); err != nil {
			t.Fatal(err)
		}
		want, _, err := v.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, bd, err := v.PredictInto(x, ws)
			if err != nil {
				t.Fatal(err)
			}
			if bd.BackboneReused != (pass > 0) {
				t.Fatalf("epoch %d pass %d: BackboneReused = %v", epoch, pass, bd.BackboneReused)
			}
			requireLabels(t, "registered pass", got, want)
		}
	}
}

// TestStoreDroppedWithRegistration: the store's memory lives exactly as
// long as its registration — filled by the first pass, reported by
// EmbeddingStoreBytes, and gone on SetCalibrationFeatures(nil) and on
// Undeploy, for a vault and for a fleet with its shard vaults.
func TestStoreDroppedWithRegistration(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Series)
	cost := enclave.DefaultCostModel()
	v, err := Deploy(bb, rec, ds.Graph, cost)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := v.Plan(ds.X.Rows)
	if err != nil {
		t.Fatal(err)
	}
	var want int64 // Σ needed block width × nodes × 8
	for _, i := range rec.RequiredEmbeddings() {
		want += int64(bb.BlockDims[i]) * int64(ds.X.Rows) * 8
	}
	fill := func() {
		t.Helper()
		if err := v.SetCalibrationFeatures(ds.X); err != nil {
			t.Fatal(err)
		}
		if got := v.EmbeddingStoreBytes(); got != 0 {
			t.Fatalf("fresh registration holds %d B", got)
		}
		epc := v.Enclave.EPCUsed()
		if _, _, err := v.PredictInto(ds.X, ws); err != nil {
			t.Fatal(err)
		}
		if got := v.EmbeddingStoreBytes(); got != want {
			t.Fatalf("filled store holds %d B, want %d", got, want)
		}
		if got := v.Enclave.EPCUsed(); got != epc {
			t.Fatalf("filling the store moved the EPC charge %d -> %d: it is normal-world memory", epc, got)
		}
	}
	fill()
	if err := v.SetCalibrationFeatures(nil); err != nil {
		t.Fatal(err)
	}
	if _, bd, err := v.PredictInto(ds.X, ws); err != nil || bd.BackboneReused || v.EmbeddingStoreBytes() != 0 {
		t.Fatalf("after clearing: err %v, reused %v, %d B held", err, bd.BackboneReused, v.EmbeddingStoreBytes())
	}
	fill()
	ws.Release()
	v.Undeploy()
	if v.features.Load() != nil {
		t.Fatal("an undeployed vault still pins its registration")
	}

	sv, err := DeploySharded(bb, rec, ds.Graph, cost, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	sws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.PredictInto(ds.X, sws); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sv.Shards(); s++ {
		if got := sv.Shard(s).EmbeddingStoreBytes(); got != want {
			t.Fatalf("shard %d sees %d B of the fleet's store, want %d", s, got, want)
		}
	}
	sws.Release()
	shards := []*Vault{sv.Shard(0), sv.Shard(1)}
	sv.Undeploy()
	if sv.features.Load() != nil || shards[0].features.Load() != nil || shards[1].features.Load() != nil {
		t.Fatal("an undeployed fleet still pins its registration")
	}
}

// TestRecoverShardCarriesStore: recovering a shard — shard 0 or any other
// — swaps in a vault that carries the fleet's own registration, not a
// second one, so the pass after a recovery still reads the store (the
// flight recorder sees a backbone stage of zero rows with no op beneath
// it) and answers what the fleet answered before the fault.
func TestRecoverShardCarriesStore(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Undeploy()
	if err := sv.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(1024)
	ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{Recorder: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Release()
	base, _, err := sv.PredictInto(ds.X, ws) // fills the store
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), base...)
	reg := sv.features.Load()

	for _, dead := range []int{0, 2} {
		sv.Shard(dead).Enclave.MarkLost()
		if _, _, err := sv.PredictInto(ds.X, ws); err == nil {
			t.Fatalf("shard %d lost: pass succeeded", dead)
		}
		if err := sv.RecoverShard(dead, ws); err != nil {
			t.Fatalf("RecoverShard(%d): %v", dead, err)
		}
		if sv.features.Load() != reg || sv.Shard(dead).features.Load() != reg {
			t.Fatalf("recovering shard %d minted or dropped a registration", dead)
		}
		t0 := ring.Clock()
		got, bd, err := sv.PredictInto(ds.X, ws)
		if err != nil {
			t.Fatalf("pass after recovering shard %d: %v", dead, err)
		}
		if !bd.BackboneReused {
			t.Fatalf("pass after recovering shard %d ran the backbone", dead)
		}
		requireLabels(t, "post-recovery pass", got, want)
		var stage obs.Span
		for _, s := range ring.Last(0) {
			if s.Start >= t0 && s.Kind == obs.SpanBackbone {
				stage = s
			}
		}
		if stage.ID == 0 || stage.Rows != 0 {
			t.Fatalf("backbone stage span %+v, want one with Rows 0", stage)
		}
		for _, s := range ring.Last(0) {
			if s.Kind == obs.SpanOp && s.Parent == stage.ID {
				t.Fatalf("a backbone op was recorded under the reused stage: %+v", s)
			}
		}
	}
}
