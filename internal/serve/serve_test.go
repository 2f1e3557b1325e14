package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

var (
	serveOnce  sync.Once
	serveDS    *datasets.Dataset
	serveVault *core.Vault
)

// testVault trains one small vault shared across the package's tests.
func testVault(t testing.TB) (*datasets.Dataset, *core.Vault) {
	t.Helper()
	serveOnce.Do(func() {
		serveDS = datasets.Load("cora")
		cfg := core.TrainConfig{Epochs: 20, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
		spec := core.SpecForDataset("cora")
		bb := core.TrainBackbone(serveDS, spec, substitute.KindKNN, substitute.KNN(serveDS.X, 2), cfg)
		rec := core.TrainRectifier(serveDS, bb, core.Parallel, cfg)
		v, err := core.Deploy(bb, rec, serveDS.Graph, enclave.DefaultCostModel())
		if err != nil {
			panic(err)
		}
		serveVault = v
	})
	return serveDS, serveVault
}

func TestServerMatchesDirectPredict(t *testing.T) {
	ds, v := testVault(t)
	want, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	s, err := New(v, Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	got, err := s.Predict(ds.X)
	if err != nil {
		t.Fatalf("server Predict: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestServerConcurrentHammer drives the server from many goroutines at
// once; run under -race it is the concurrency regression test for the
// whole plan/workspace/enclave stack.
func TestServerConcurrentHammer(t *testing.T) {
	ds, v := testVault(t)
	want, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	s, err := New(v, Config{Workers: 4, MaxBatch: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	const clients, perClient = 16, 5
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				got, err := s.Predict(ds.X)
				if err != nil {
					errCh <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errCh <- errors.New("concurrent result diverged from sequential Predict")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Completed != clients*perClient {
		t.Fatalf("completed %d, want %d", st.Completed, clients*perClient)
	}
	if st.Errors != 0 {
		t.Fatalf("%d errors", st.Errors)
	}
	if st.Batches == 0 || st.Batches > st.Completed {
		t.Fatalf("batches %d outside (0, %d]", st.Batches, st.Completed)
	}
	if st.AvgBatch < 1 {
		t.Fatalf("avg batch %f < 1", st.AvgBatch)
	}
	if st.AvgLatency <= 0 || st.MaxLatency < st.AvgLatency {
		t.Fatalf("latency stats inconsistent: avg %v max %v", st.AvgLatency, st.MaxLatency)
	}
	if st.Throughput <= 0 {
		t.Fatalf("throughput %f", st.Throughput)
	}
}

func TestServerBadInputSurfacesError(t *testing.T) {
	ds, v := testVault(t)
	s, err := New(v, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if _, err := s.Predict(mat.New(ds.X.Rows-1, ds.X.Cols)); err == nil {
		t.Fatal("mismatched rows did not error")
	}
	// Wrong feature width must surface as an error, not panic the worker.
	if _, err := s.Predict(mat.New(ds.X.Rows, ds.X.Cols+3)); err == nil {
		t.Fatal("mismatched cols did not error")
	}
	// No matrix at all is refused at admission — never enqueued, so never
	// counted — instead of panicking the caller or a worker.
	if _, err := s.Predict(nil); err == nil {
		t.Fatal("nil features did not error")
	}
	if got, err := s.Predict(ds.X); err != nil || len(got) != ds.X.Rows {
		t.Fatalf("server unhealthy after bad requests: %v", err)
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Fatalf("errors %d, want 2", st.Errors)
	}
}

func TestServerTooManyWorkersFailsCleanly(t *testing.T) {
	_, v := testVault(t)
	base := v.Enclave.EPCUsed()
	// The cora workspace is ~1.5 MB; thousands of workers cannot fit 96 MB.
	if _, err := New(v, Config{Workers: 1 << 14}); err == nil {
		t.Fatal("oversubscribed pool did not fail")
	} else if !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("error %v, want ErrEPCExhausted", err)
	}
	if used := v.Enclave.EPCUsed(); used != base {
		t.Fatalf("failed New leaked EPC: %d vs %d", used, base)
	}
}

// nodeQueryCfg is the sampling geometry shared by the node-query serving
// tests; fanout 0 keeps extraction deterministic in the seed set alone.
func nodeQueryCfg() *registry.NodeQueryConfig {
	return &registry.NodeQueryConfig{Hops: 2, Fanout: 0, MaxSeeds: 4, Seed: 5}
}

// expectedNodeLabels computes the reference answer for a seed batch with
// a directly-planned workspace under the same geometry: extraction is a
// pure function of (config, seeds), so a server answering the same batch
// must return exactly these labels.
func expectedNodeLabels(t *testing.T, v *core.Vault, x *mat.Matrix, seeds []int) []int {
	t.Helper()
	nq := nodeQueryCfg()
	ws, err := v.PlanSubgraph(nq.MaxSeeds, nq.Subgraph())
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	labels, _, err := v.PredictNodesInto(x, seeds, ws)
	if err != nil {
		t.Fatalf("reference PredictNodesInto: %v", err)
	}
	return append([]int{}, labels...)
}

func TestServerPredictNodes(t *testing.T) {
	ds, v := testVault(t)
	s, err := New(v, Config{Workers: 1, NodeQuery: nodeQueryCfg(), Features: ds.X})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	seeds := []int{3, 99, 280}
	want := expectedNodeLabels(t, v, ds.X, seeds)
	got, err := s.PredictNodes(seeds)
	if err != nil {
		t.Fatalf("PredictNodes: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Duplicate seeds inside one request resolve through the union.
	dup, err := s.PredictNodes([]int{99, 99, 3})
	if err != nil {
		t.Fatalf("duplicate PredictNodes: %v", err)
	}
	if dup[0] != dup[1] {
		t.Fatalf("duplicate seeds answered differently: %v", dup)
	}

	// Error surfaces, by name.
	if _, err := s.PredictNodes([]int{ds.Graph.N()}); !errors.Is(err, core.ErrNodeOutOfRange) {
		t.Fatalf("out of range: err = %v, want core.ErrNodeOutOfRange", err)
	}
	if _, err := s.PredictNodes([]int{1, 2, 3, 4, 5}); !errors.Is(err, subgraph.ErrTooManySeeds) {
		t.Fatalf("oversize: err = %v, want subgraph.ErrTooManySeeds", err)
	}
	if out, err := s.PredictNodes(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty query: out=%v err=%v", out, err)
	}

	st := s.Stats()
	if st.Errors == 0 || st.Completed == 0 {
		t.Fatalf("stats did not record the mixed outcomes: %+v", st)
	}
}

func TestServerPredictNodesDisabled(t *testing.T) {
	_, v := testVault(t)
	s, err := New(v, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if _, err := s.PredictNodes([]int{1}); !errors.Is(err, ErrNodeQueriesDisabled) {
		t.Fatalf("err = %v, want ErrNodeQueriesDisabled", err)
	}
}

// contractStack is one backend stood up for the scheduler contract: the
// server's entry points behind one shape, the single-enclave deployment of
// the same model as the direct reference, and the figures taken just before
// the constructor ran.
type contractStack struct {
	predict      func(*mat.Matrix) ([]int, error)
	predictNodes func([]int) ([]int, error)
	stats        func() Stats
	close        func()
	x            *mat.Matrix
	ref          *core.Vault
	epc          func() int64 // EPC charged where the server plans its own workspaces; nil where it owns none
	epcBase      int64
	goroutines   int
}

// schedulerBackends is the one table the scheduler contract runs over:
// every behaviour the serving core owes its callers is checked against each
// backend, all under nodeQueryCfg's geometry. A one-vault registry and a
// two-shard fleet are ordinary cases of the same scheduler.
var schedulerBackends = []struct {
	name string
	up   func(t *testing.T, cfg Config) *contractStack
}{
	{"single vault", func(t *testing.T, cfg Config) *contractStack {
		ds, v := testVault(t)
		st := &contractStack{x: ds.X, ref: v, epc: v.Enclave.EPCUsed, epcBase: v.Enclave.EPCUsed(), goroutines: runtime.NumGoroutine()}
		cfg.NodeQuery, cfg.Features = nodeQueryCfg(), ds.X
		s, err := New(v, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		st.predict, st.predictNodes, st.stats, st.close = s.Predict, s.PredictNodes, s.Stats, s.Close
		return st
	}},
	{"one-vault registry", func(t *testing.T, cfg Config) *contractStack {
		ds, v := testVault(t)
		reg := registry.New(v.Enclave, registry.Config{NodeQuery: nodeQueryCfg()})
		t.Cleanup(reg.Close)
		if err := reg.Register("v", v); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if err := reg.EnableNodeQueries("v", ds.X); err != nil {
			t.Fatalf("EnableNodeQueries: %v", err)
		}
		st := &contractStack{x: ds.X, ref: v, goroutines: runtime.NumGoroutine()}
		s := NewMulti(reg, cfg)
		st.predict = func(x *mat.Matrix) ([]int, error) { return s.Predict("v", x) }
		st.predictNodes = func(nodes []int) ([]int, error) { return s.PredictNodes("v", nodes) }
		st.stats, st.close = s.Stats, s.Close
		return st
	}},
	{"2-shard fleet", func(t *testing.T, cfg Config) *contractStack {
		ds, ref, fleet := testFreshFleet(t, 2)
		epc := func() int64 { return fleet.Shard(0).Enclave.EPCUsed() + fleet.Shard(1).Enclave.EPCUsed() }
		st := &contractStack{x: ds.X, ref: ref, epc: epc, epcBase: epc(), goroutines: runtime.NumGoroutine()}
		cfg.NodeQuery, cfg.Features = nodeQueryCfg(), ds.X
		s, err := NewSharded(fleet, cfg)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		st.predict, st.predictNodes, st.stats, st.close = s.Predict, s.PredictNodes, s.Stats, s.Close
		return st
	}},
}

// overBackends runs one row of the scheduler contract against every
// backend in the table.
func overBackends(t *testing.T, cfg Config, row func(t *testing.T, s *contractStack)) {
	for _, b := range schedulerBackends {
		t.Run(b.name, func(t *testing.T) {
			s := b.up(t, cfg)
			defer s.close()
			row(t, s)
		})
	}
}

// fullReference is the direct full-graph answer the served one must equal.
func (s *contractStack) fullReference(t *testing.T) []int {
	t.Helper()
	want, _, err := s.ref.Predict(s.x)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	return want
}

// hammer runs each client function perClient times on its own goroutine
// and fails the test on the first error any of them returns.
func hammer(t *testing.T, perClient int, clients ...func() error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				if err := c(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerNodeQueryHammerCoalesces: every client queries the same seed
// set, so whatever requests get coalesced, the union — and therefore the
// deterministic extraction — is always that set, and every answer must
// equal the directly planned reference.
func TestServerNodeQueryHammerCoalesces(t *testing.T) {
	overBackends(t, Config{Workers: 2, MaxBatch: 8}, func(t *testing.T, s *contractStack) {
		seeds := []int{7, 41}
		want := expectedNodeLabels(t, s.ref, s.x, seeds)
		const clients, perClient = 8, 10
		client := func() error {
			got, err := s.predictNodes(seeds)
			if err == nil && (got[0] != want[0] || got[1] != want[1]) {
				err = errors.New("answer diverged under concurrency")
			}
			return err
		}
		all := make([]func() error, clients)
		for c := range all {
			all[c] = client
		}
		hammer(t, perClient, all...)
		if st := s.stats(); st.Completed != clients*perClient || st.Errors != 0 {
			t.Fatalf("completed/errors %d/%d, want %d/0", st.Completed, st.Errors, clients*perClient)
		}
	})
}

// TestServerMixedTrafficOneQueue drives full-graph and node queries
// through the same queue concurrently; every full-graph answer must equal
// the direct reference, label for label.
func TestServerMixedTrafficOneQueue(t *testing.T) {
	overBackends(t, Config{Workers: 2}, func(t *testing.T, s *contractStack) {
		full := s.fullReference(t)
		var clients []func() error
		for c := 0; c < 4; c++ {
			clients = append(clients, func() error {
				got, err := s.predict(s.x)
				if err == nil && !slices.Equal(got, full) {
					err = errors.New("full-graph answer drifted from the direct reference")
				}
				return err
			}, func() error {
				_, err := s.predictNodes([]int{c * 3})
				return err
			})
		}
		hammer(t, 5, clients...)
	})
}

// TestServerNodeQueryIsolatesBadSeeds pins the coalescing contract: an
// out-of-range query and an over-MaxSeeds query that land in the same
// worker wake-up as valid queries must each fail alone, with their own
// sentinel — the valid queries' shared extraction cannot be poisoned by
// them. A zero-length query is answered empty without touching the queue.
func TestServerNodeQueryIsolatesBadSeeds(t *testing.T) {
	overBackends(t, Config{Workers: 1, MaxBatch: 8}, func(t *testing.T, s *contractStack) {
		for _, none := range [][]int{nil, {}} {
			if out, err := s.predictNodes(none); err != nil || out == nil || len(out) != 0 {
				t.Fatalf("zero-length query: out=%v err=%v, want empty", out, err)
			}
		}
		if st := s.stats(); st.Requests != 0 {
			t.Fatalf("zero-length queries were enqueued: %d requests", st.Requests)
		}
		n := s.x.Rows
		bad := func(nodes []int, want error) func() error {
			return func() error {
				if _, err := s.predictNodes(nodes); !errors.Is(err, want) {
					return fmt.Errorf("PredictNodes(%v) = %v, want %v", nodes, err, want)
				}
				return nil
			}
		}
		clients := []func() error{
			bad([]int{-1}, core.ErrNodeOutOfRange),
			bad([]int{3, n}, core.ErrNodeOutOfRange),
			bad([]int{1, 2, 3, 4, 5}, subgraph.ErrTooManySeeds),
		}
		for c := 0; c < 3; c++ {
			clients = append(clients, func() error {
				_, err := s.predictNodes([]int{c + 1, n - 1 - c}) // first and last shard of a fleet
				return err
			})
		}
		hammer(t, 20, clients...)
		if st := s.stats(); st.Completed != 3*20 || st.Errors != 3*20 {
			t.Fatalf("completed/errors %d/%d, want 60/60", st.Completed, st.Errors)
		}
	})
}

// TestServerCloseReleasesEPCAndRejects pins the one Close protocol: after
// Close every entry point returns ErrClosed, a second Close is a no-op,
// the enclaves a server planned its own workspaces into are back at their
// pre-constructor EPC, and no goroutine the server started outlives it.
func TestServerCloseReleasesEPCAndRejects(t *testing.T) {
	overBackends(t, Config{Workers: 3}, func(t *testing.T, s *contractStack) {
		if s.epc != nil && s.epc() <= s.epcBase {
			t.Fatalf("workers did not charge EPC: %d vs %d", s.epc(), s.epcBase)
		}
		if _, err := s.predict(s.x); err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if _, err := s.predictNodes([]int{5}); err != nil {
			t.Fatalf("PredictNodes: %v", err)
		}
		s.close()
		s.close() // idempotent
		if _, err := s.predict(s.x); !errors.Is(err, ErrClosed) {
			t.Fatalf("Predict after close: %v, want ErrClosed", err)
		}
		if _, err := s.predictNodes([]int{5}); !errors.Is(err, ErrClosed) {
			t.Fatalf("PredictNodes after close: %v, want ErrClosed", err)
		}
		if s.epc != nil && s.epc() != s.epcBase {
			t.Fatalf("EPC after close %d, want %d", s.epc(), s.epcBase)
		}
		// A worker's wg.Done runs a moment before its goroutine is gone.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > s.goroutines {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after close, %d before the constructor", runtime.NumGoroutine(), s.goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
