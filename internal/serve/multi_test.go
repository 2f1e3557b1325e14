package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/registry"
)

// multiFleet deploys two rectifier designs over the shared test backbone
// into one enclave sized to admit both vaults' persistent state plus
// `admit` workspaces of the largest design, and registers them by design
// name. want holds each vault's reference labels from direct Predict.
func multiFleet(t testing.TB, admit int, cfg registry.Config) (*datasets.Dataset, *enclave.Enclave, *registry.Registry, map[string][]int) {
	t.Helper()
	ds, base := testVault(t)
	train := core.TrainConfig{Epochs: 20, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	recs := map[string]*core.Rectifier{
		"parallel": core.TrainRectifier(ds, base.Backbone, core.Parallel, train),
		"series":   core.TrainRectifier(ds, base.Backbone, core.Series, train),
	}

	// Measure each design's EPC quanta on roomy throwaway deployments.
	persist, maxWS, minWS := int64(0), int64(0), int64(1<<62)
	for name, rec := range recs {
		scratch, err := core.Deploy(base.Backbone, rec, ds.Graph, enclave.DefaultCostModel())
		if err != nil {
			t.Fatalf("scratch deploy %s: %v", name, err)
		}
		ws, err := scratch.Plan(scratch.Nodes())
		if err != nil {
			t.Fatalf("scratch plan %s: %v", name, err)
		}
		persist += scratch.PersistentBytes()
		b := ws.EnclaveBytes()
		if b > maxWS {
			maxWS = b
		}
		if b < minWS {
			minWS = b
		}
		ws.Release()
	}

	cost := enclave.DefaultCostModel()
	cost.EPCBytes = persist + int64(admit)*maxWS + minWS/4
	encl := enclave.New(cost, recs["parallel"].Identity(), recs["series"].Identity())
	reg := registry.New(encl, cfg)
	want := map[string][]int{}
	for name, rec := range recs {
		v, err := core.DeployInto(encl, base.Backbone, rec, ds.Graph)
		if err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
		if err := reg.Register(name, v); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		labels, _, err := v.Predict(ds.X)
		if err != nil {
			t.Fatalf("reference predict %s: %v", name, err)
		}
		want[name] = labels
	}
	return ds, encl, reg, want
}

func TestMultiServerRoutesByVaultID(t *testing.T) {
	ds, _, reg, want := multiFleet(t, 4, registry.Config{})
	defer reg.Close()
	s := NewMulti(reg, Config{Workers: 2})
	defer s.Close()

	for name, ref := range want {
		got, err := s.Predict(name, ds.X)
		if err != nil {
			t.Fatalf("Predict(%s): %v", name, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s label[%d] = %d, want %d", name, i, got[i], ref[i])
			}
		}
	}
	if _, err := s.Predict("nope", ds.X); !errors.Is(err, registry.ErrUnknownVault) {
		t.Fatalf("unknown vault: %v, want registry.ErrUnknownVault", err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Completed != 2 {
		t.Fatalf("stats errors/completed = %d/%d, want 1/2", st.Errors, st.Completed)
	}
}

// TestMultiServerEvictionChurnHammer is the serving-level -race test for
// the EPC scheduler: concurrent clients alternate between two vaults while
// the enclave admits only one workspace, forcing plan/evict churn under
// load. After the server closes, the enclave must be back at its
// deploy-time EPC baseline.
func TestMultiServerEvictionChurnHammer(t *testing.T) {
	ds, encl, reg, want := multiFleet(t, 1, registry.Config{WorkspacesPerVault: 1})
	baseline := encl.EPCUsed() // persistent state only: nothing planned yet
	s := NewMulti(reg, Config{Workers: 3, MaxBatch: 4})

	names := []string{"parallel", "series"}
	const clients, perClient = 8, 4
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				name := names[(c+r)%len(names)]
				got, err := s.Predict(name, ds.X)
				if err != nil {
					errCh <- err
					return
				}
				for i, w := range want[name] {
					if got[i] != w {
						errCh <- errors.New("routed result diverged from direct Predict of " + name)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if used, limit := encl.EPCUsed(), encl.EPCLimit(); used > limit {
		t.Fatalf("EPC %d above capacity %d", used, limit)
	}
	rst := reg.Stats()
	if rst.Requests == 0 || rst.Plans < 2 || rst.Evictions == 0 {
		t.Fatalf("expected plan/evict churn, got requests=%d plans=%d evictions=%d",
			rst.Requests, rst.Plans, rst.Evictions)
	}
	st := s.Stats()
	if st.Completed != clients*perClient || st.Errors != 0 {
		t.Fatalf("completed/errors = %d/%d, want %d/0", st.Completed, st.Errors, clients*perClient)
	}

	s.Close()
	reg.Close()
	if got := encl.EPCUsed(); got != baseline {
		t.Fatalf("EPC after close %d, want deploy-time baseline %d", got, baseline)
	}
}

// TestMultiServerConcurrentArrivalsCheckOutTogether pins what the
// post-checkout yield is for: on one processor, where a cora pass is far
// too short for the runtime to preempt, two requests that arrive together
// must still hold two workspaces of their vault together — so the registry
// plans the second one when the concurrency first shows, not when a
// preemption tick happens to land inside a pass.
func TestMultiServerConcurrentArrivalsCheckOutTogether(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds, _, reg, want := multiFleet(t, 4, registry.Config{WorkspacesPerVault: 2})
	defer reg.Close()
	s := NewMulti(reg, Config{Workers: 2})
	defer s.Close()

	workspaces := func() int {
		for _, vs := range reg.Stats().PerVault {
			if vs.ID == "parallel" {
				return vs.Workspaces
			}
		}
		return -1
	}
	if _, err := s.Predict("parallel", ds.X); err != nil { // one client: one workspace
		t.Fatal(err)
	}
	if n := workspaces(); n != 1 {
		t.Fatalf("workspaces after a lone request = %d, want 1", n)
	}
	for round := 0; round < 20 && workspaces() < 2; round++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := s.Predict("parallel", ds.X)
				if err != nil {
					t.Error(err)
					return
				}
				for i, w := range want["parallel"] {
					if got[i] != w {
						t.Errorf("label[%d] = %d, want %d", i, got[i], w)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if n := workspaces(); n != 2 {
		t.Fatalf("workspaces after 20 rounds of paired requests on one processor = %d, want 2", n)
	}
}

func TestMultiServerCloseRejectsButRegistrySurvives(t *testing.T) {
	ds, _, reg, _ := multiFleet(t, 4, registry.Config{})
	defer reg.Close()
	s := NewMulti(reg, Config{Workers: 1})
	if _, err := s.Predict("parallel", ds.X); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Predict("parallel", ds.X); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after close: %v, want ErrClosed", err)
	}
	// The registry is caller-owned: a new front-end serves immediately.
	s2 := NewMulti(reg, Config{Workers: 1})
	defer s2.Close()
	if _, err := s2.Predict("series", ds.X); err != nil {
		t.Fatalf("fresh server over surviving registry: %v", err)
	}
}

func TestMultiServerPredictNodes(t *testing.T) {
	nqCfg := *nodeQueryCfg()
	ds, _, reg, _ := multiFleet(t, 3, registry.Config{NodeQuery: &nqCfg})
	defer reg.Close()
	if err := reg.EnableNodeQueries("parallel", ds.X); err != nil {
		t.Fatalf("EnableNodeQueries: %v", err)
	}
	srv := NewMulti(reg, Config{Workers: 1})
	defer srv.Close()

	seeds := []int{12, 77}
	want := expectedNodeLabels(t, reg.Vault("parallel"), ds.X, seeds)
	got, err := srv.PredictNodes("parallel", seeds)
	if err != nil {
		t.Fatalf("PredictNodes: %v", err)
	}
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("labels %v, want %v", got, want)
	}

	// The series vault never enabled node queries: named error.
	if _, err := srv.PredictNodes("series", seeds); !errors.Is(err, registry.ErrNodeQueriesDisabled) {
		t.Fatalf("series: err = %v, want registry.ErrNodeQueriesDisabled", err)
	}
	// Unknown vault IDs surface as usual.
	if _, err := srv.PredictNodes("nope", seeds); !errors.Is(err, registry.ErrUnknownVault) {
		t.Fatalf("unknown: err = %v, want registry.ErrUnknownVault", err)
	}
	// Full-graph traffic still flows beside node queries.
	if _, err := srv.Predict("series", ds.X); err != nil {
		t.Fatalf("full-graph Predict: %v", err)
	}

	st := reg.Stats()
	for _, vs := range st.PerVault {
		if vs.ID == "parallel" && vs.NodeQueries == 0 {
			t.Fatalf("registry recorded no node queries: %+v", vs)
		}
	}
}
