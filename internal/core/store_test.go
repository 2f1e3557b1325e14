package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
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

// storeTarget is a deployment the store tests drive alike — a Vault, or a
// 3-shard fleet of the same model: how to register features on it, read
// its current registration, and plan a workspace (as the pair predict /
// release).
type storeTarget struct {
	name     string
	register func(*mat.Matrix) error
	current  func() *registration
	plan     func(PlanConfig) (predict func(*mat.Matrix) ([]int, InferenceBreakdown, error), release func(), err error)
}

// storeTargets returns v and a 3-shard fleet deployed from v's model over
// ds's graph, undeployed with the test.
func storeTargets(t *testing.T, ds *datasets.Dataset, v *Vault) []storeTarget {
	t.Helper()
	sv, err := DeploySharded(v.Backbone, v.rectifier, ds.Graph, enclave.DefaultCostModel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Undeploy)
	n := ds.X.Rows
	type predictFn = func(*mat.Matrix) ([]int, InferenceBreakdown, error)
	return []storeTarget{
		{"vault", v.SetCalibrationFeatures, v.features.Load, func(cfg PlanConfig) (predictFn, func(), error) {
			ws, err := v.PlanWith(n, cfg)
			if err != nil {
				return nil, nil, err
			}
			return func(x *mat.Matrix) ([]int, InferenceBreakdown, error) { return v.PredictInto(x, ws) }, ws.Release, nil
		}},
		{"fleet", sv.SetCalibrationFeatures, sv.features.Load, func(cfg PlanConfig) (predictFn, func(), error) {
			ws, err := sv.PlanSharded(n, cfg)
			if err != nil {
				return nil, nil, err
			}
			return func(x *mat.Matrix) ([]int, InferenceBreakdown, error) { return sv.PredictInto(x, ws) }, ws.Release, nil
		}},
	}
}

// TestRegisteredFeaturesNeverMixed is the epoch fence of the public-half
// store, run under -race in CI: several workspaces of one deployment
// predict concurrently over matrix A or matrix B, chosen per call, while
// another goroutine keeps re-registering A, B and nothing. Every answer
// must be the uncached reference (Vault.Predict before anything is
// registered, so the backbone runs) for the matrix that call passed —
// never the other's, whatever was registered or published while it ran.
// Once on a Vault, once on a 3-shard fleet.
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

	// Two fp64 workspaces, one int8 direct and one int8 tiled: an int8
	// machine also keeps the store's codes between passes (declareInputs),
	// so it has a second way to serve the wrong matrix. An int8 plan is
	// calibrated once, against whatever is registered when it is planned
	// (A, here), and its reference is a twin planned with it that is only
	// ever fed copies — the own-x path, which quantises every pass.
	const workers, passes = 4, 24
	cfgs := [workers]PlanConfig{
		{Workers: 1},
		{Workers: 1},
		{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5},
		{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5, TileRows: 300},
	}
	copies := [2]*mat.Matrix{a.Clone(), b.Clone()}
	hammer := func(t *testing.T, want [workers][2][]int, register func(*mat.Matrix) error, predict func(w int, x *mat.Matrix) ([]int, InferenceBreakdown, error)) {
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
					requireLabels(t, "concurrent pass", got, want[w][k])
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

	for _, tg := range storeTargets(t, ds, v) {
		t.Run(tg.name, func(t *testing.T) {
			if err := tg.register(a); err != nil {
				t.Fatal(err)
			}
			var predicts [workers]func(*mat.Matrix) ([]int, InferenceBreakdown, error)
			var wants [workers][2][]int
			for w := range predicts {
				predict, release, err := tg.plan(cfgs[w])
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				predicts[w], wants[w] = predict, want
				if cfgs[w].Precision == PrecisionFP64 {
					continue
				}
				twin, releaseTwin, err := tg.plan(cfgs[w])
				if err != nil {
					t.Fatal(err)
				}
				defer releaseTwin()
				for k, x := range copies {
					got, _, err := twin(x)
					if err != nil {
						t.Fatal(err)
					}
					wants[w][k] = append([]int(nil), got...)
				}
			}
			hammer(t, wants, tg.register, func(w int, x *mat.Matrix) ([]int, InferenceBreakdown, error) {
				return predicts[w](x)
			})
		})
	}
}

// TestInt8BoundaryCodesNeverStale walks one int8 workspace — direct and
// tiled, on a Vault and on a 3-shard fleet — through every way the
// features behind it can change: registered A, the caller's own copy of
// B, registered A again, B registered in A's place, B edited in place and
// registered again under the same pointer; each registered matrix is
// asked for three times, so the store is filled, read by a machine
// holding other codes, and read by one holding its own. Every answer
// must be the answer of a twin workspace that is only ever fed a fresh
// copy of that call's matrix (so it quantises every pass), and the
// quantise spans must show the boundary quantisation ran exactly when
// the pass did not read the store record the machines' codes were
// already keyed on — the plan's calibration pass having left A's behind.
func TestInt8BoundaryCodesNeverStale(t *testing.T) {
	ds, v := convTestVault(t, "", Parallel, 5)
	defer v.Undeploy()
	n := ds.X.Rows
	for _, tg := range storeTargets(t, ds, v) {
		for _, mode := range []struct {
			name string
			cfg  PlanConfig
		}{
			{"direct", PlanConfig{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5}},
			{"tiled", PlanConfig{Workers: 1, Precision: PrecisionInt8, MinAgreement: 0.5, TileRows: 300}},
		} {
			t.Run(tg.name+"/"+mode.name, func(t *testing.T) {
				a, b := ds.X.Clone(), ds.X.Clone()
				rotateRows(b)
				if err := tg.register(a); err != nil {
					t.Fatal(err)
				}
				ring := obs.NewRing(4096)
				cfg := mode.cfg
				cfg.Recorder = ring
				predict, release, err := tg.plan(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				twin, releaseTwin, err := tg.plan(mode.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer releaseTwin()

				held := tg.current() // the calibration pass left A's codes behind
				skipped, differing := 0, 0
				var last []int
				pass := func(what string, x *mat.Matrix) {
					t.Helper()
					wantLabels, _, err := twin(x.Clone())
					if err != nil {
						t.Fatalf("%s: twin: %v", what, err)
					}
					t0 := ring.Clock()
					got, bd, err := predict(x)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					requireLabels(t, what, got, wantLabels)
					var key *registration
					if bd.BackboneReused {
						key = tg.current()
					}
					wantRows := int32(n)
					if key != nil && key == held {
						wantRows = 0
						skipped++
					}
					held = key
					var rows int32
					spans := 0
					for _, s := range ring.Last(0) {
						if s.Start >= t0 && s.Kind == obs.SpanOp && exec.OpKind(s.Op).String() == "quantise" {
							spans, rows = spans+1, rows+s.Rows
						}
					}
					if spans == 0 || rows != wantRows {
						t.Fatalf("%s: %d quantise spans over %d rows, want %d rows (store reused: %v)", what, spans, rows, wantRows, bd.BackboneReused)
					}
					if last != nil {
						for i := range got {
							if got[i] != last[i] {
								differing++
								break
							}
						}
					}
					last = append(last[:0], got...)
				}
				thrice := func(what string, x *mat.Matrix) {
					t.Helper()
					for i := 0; i < 3; i++ {
						pass(what, x)
					}
				}
				thrice("registered A", a)
				pass("own copy of B", b.Clone())
				thrice("registered A after B", a)
				if err := tg.register(b); err != nil {
					t.Fatal(err)
				}
				thrice("registered B", b)
				rotateRows(b)
				if err := tg.register(b); err != nil {
					t.Fatal(err)
				}
				thrice("B edited in place and registered again", b)
				// A: 3 of 3, then 2 of 3; each B: 1 of 3 (one pass fills the
				// store, one reads it into a machine holding no record's codes).
				if skipped != 7 {
					t.Errorf("%d passes skipped the boundary quantisation, want 7", skipped)
				}
				if differing < 4 {
					t.Errorf("answers changed %d times over four changes of matrix: a stale pass would go unseen", differing)
				}
			})
		}
	}
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
		want, _, err := v.Predict(x.Clone()) // not the registered pointer: the backbone runs, the store stays empty
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
	defer func() { ws.Release() }()          // the last re-plan
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
		if err := sv.RecoverShard(dead); err != nil {
			t.Fatalf("RecoverShard(%d): %v", dead, err)
		}
		ws.Release()
		if ws, err = sv.PlanSharded(ds.X.Rows, PlanConfig{Recorder: ring}); err != nil {
			t.Fatalf("re-plan after recovering shard %d: %v", dead, err)
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
