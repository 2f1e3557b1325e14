package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
	"gnnvault/internal/substitute"
)

var (
	shardOnce  sync.Once
	shardDS    *datasets.Dataset
	shardBB    *core.Backbone
	shardRec   *core.Rectifier
	shardRef   *core.Vault        // single-enclave reference deployment
	shardFleet *core.ShardedVault // 3-shard fleet over the same model
)

// testShardedVault trains one model and deploys it twice: once into a
// single enclave (the bit-identity reference) and once across a 3-shard
// fleet. Shared across the package's sharded tests.
func testShardedVault(t testing.TB) (*datasets.Dataset, *core.Vault, *core.ShardedVault) {
	t.Helper()
	shardOnce.Do(func() {
		shardDS = datasets.Load("cora")
		cfg := core.TrainConfig{Epochs: 20, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
		spec := core.SpecForDataset("cora")
		shardBB = core.TrainBackbone(shardDS, spec, substitute.KindKNN, substitute.KNN(shardDS.X, 2), cfg)
		shardRec = core.TrainRectifier(shardDS, shardBB, core.Parallel, cfg)
		ref, err := core.Deploy(shardBB, shardRec, shardDS.Graph, enclave.DefaultCostModel())
		if err != nil {
			panic(err)
		}
		fleet, err := core.DeploySharded(shardBB, shardRec, shardDS.Graph, enclave.DefaultCostModel(), 3)
		if err != nil {
			panic(err)
		}
		shardRef = ref
		shardFleet = fleet
	})
	return shardDS, shardRef, shardFleet
}

// testFreshFleet deploys a private shard fleet from the shared trained
// model, for tests that kill enclaves: chaos must never poison the
// package-shared fleet.
func testFreshFleet(t testing.TB, shards int) (*datasets.Dataset, *core.Vault, *core.ShardedVault) {
	t.Helper()
	ds, ref, _ := testShardedVault(t)
	fleet, err := core.DeploySharded(shardBB, shardRec, ds.Graph, enclave.DefaultCostModel(), shards)
	if err != nil {
		t.Fatalf("deploying fresh fleet: %v", err)
	}
	t.Cleanup(fleet.Undeploy)
	return ds, ref, fleet
}

func TestShardedServerMatchesSingleEnclave(t *testing.T) {
	ds, ref, fleet := testShardedVault(t)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	nq := registry.NodeQueryConfig{}
	s, err := NewSharded(fleet, Config{Workers: 2, NodeQuery: &nq, Features: ds.X})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()

	got, err := s.Predict(ds.X)
	if err != nil {
		t.Fatalf("sharded Predict: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d (sharded diverged from single enclave)", i, got[i], want[i])
		}
	}

	// Node queries route to the owning shard but answer identically to a
	// single-enclave server with the same sampling geometry.
	single := oneVault(t, ref, ds.X, &nq, Config{Workers: 1})
	defer single.Close()
	n := fleet.Nodes()
	for _, seeds := range [][]int{{0}, {n - 1}, {n / 2, n/2 + 1}, {1, n - 2, n / 3}} {
		wantN, err := single.PredictNodes(oneVaultID, seeds)
		if err != nil {
			t.Fatalf("single PredictNodes(%v): %v", seeds, err)
		}
		gotN, err := s.PredictNodes(seeds)
		if err != nil {
			t.Fatalf("sharded PredictNodes(%v): %v", seeds, err)
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("PredictNodes(%v)[%d] = %d, want %d", seeds, i, gotN[i], wantN[i])
			}
		}
	}

	st := s.ShardStats()
	if st.Shards != 3 {
		t.Fatalf("ShardStats.Shards = %d, want 3", st.Shards)
	}
	var halo int64
	for i, h := range st.HaloBytes {
		halo += h
		if st.EPCUsed[i] <= 0 {
			t.Fatalf("shard %d EPCUsed = %d, want > 0", i, st.EPCUsed[i])
		}
		if !st.Available[i] {
			t.Fatalf("shard %d unexpectedly offline", i)
		}
	}
	if halo <= 0 {
		t.Fatalf("accumulated halo bytes = %d, want > 0 after sharded traffic", halo)
	}
	if st.Fanout.Count == 0 {
		t.Fatal("fan-out histogram recorded no full-graph samples")
	}
}

// TestNewShardedOversubscribedFails: a fleet whose shard enclaves hold
// one full-graph workspace each cannot serve two workers. NewSharded says
// so promptly, with the EPC error, and leaves every shard enclave at its
// deploy residents; with one worker it serves.
func TestNewShardedOversubscribedFails(t *testing.T) {
	ds, _, probe := testShardedVault(t)
	ws, err := probe.PlanSharded(probe.Nodes(), core.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = 0
	for s := 0; s < probe.Shards(); s++ {
		cost.EPCBytes = max(cost.EPCBytes, probe.Shard(s).PersistentBytes()+ws.ShardEnclaveBytes(s))
	}
	ws.Release()
	sv, err := core.DeploySharded(shardBB, shardRec, ds.Graph, cost, probe.Shards())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Undeploy)

	done := make(chan error, 1)
	go func() {
		srv, err := NewSharded(sv, Config{Workers: 2})
		if err == nil {
			srv.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, enclave.ErrEPCExhausted) {
			t.Fatalf("NewSharded with two workers: %v, want ErrEPCExhausted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewSharded with two workers did not return")
	}
	for s := 0; s < sv.Shards(); s++ {
		if v := sv.Shard(s); v.Enclave.EPCUsed() != v.PersistentBytes() {
			t.Errorf("shard %d enclave holds %d EPC bytes, want its %d deploy bytes", s, v.Enclave.EPCUsed(), v.PersistentBytes())
		}
	}

	srv, err := NewSharded(sv, Config{Workers: 1})
	if err != nil {
		t.Fatalf("NewSharded with one worker: %v", err)
	}
	defer srv.Close()
	if _, err := srv.Predict(ds.X); err != nil {
		t.Fatalf("Predict: %v", err)
	}
}

func TestShardedServerShardOutage(t *testing.T) {
	ds, _, fleet := testShardedVault(t)
	nq := registry.NodeQueryConfig{}
	s, err := NewSharded(fleet, Config{Workers: 1, NodeQuery: &nq, Features: ds.X})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()

	s.SetShardAvailable(1, false)
	if _, err := s.Predict(ds.X); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("full-graph Predict with shard 1 offline: err = %v, want ErrShardUnavailable", err)
	}
	// A node query owned by the offline shard fails; one owned by a
	// serving shard still answers.
	offSeed := fleet.Part.Bounds[1] // first row of shard 1
	if _, err := s.PredictNodes([]int{offSeed}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("PredictNodes on offline shard: err = %v, want ErrShardUnavailable", err)
	}
	if _, err := s.PredictNodes([]int{0}); err != nil {
		t.Fatalf("PredictNodes on serving shard: %v", err)
	}

	s.SetShardAvailable(1, true)
	if _, err := s.Predict(ds.X); err != nil {
		t.Fatalf("Predict after shard rejoin: %v", err)
	}
}

// TestFleetScoresMatchSingleVault: logits come through the fleet — every
// shard's rows stitched in seed order — so the defended score rows a 2- and
// a 3-shard fleet entry of a registry serve, full-graph and node-level,
// equal a single vault's bit for bit under the same RoundDigits and TopK
// defenses.
func TestFleetScoresMatchSingleVault(t *testing.T) {
	ds, ref, _ := testShardedVault(t)
	nq := nodeQueryCfg()
	cfg := Config{Workers: 1, ExposeScores: true, RoundDigits: 3, TopK: 2}
	single := oneVault(t, ref, ds.X, nq, cfg)
	defer single.Close()
	wantRows, wantLabels, err := single.PredictScores(oneVaultID, ds.X)
	if err != nil {
		t.Fatalf("single PredictScores: %v", err)
	}
	n := ds.X.Rows
	seedSets := [][]int{{0}, {n - 1}, {n / 2, n/2 + 1}}
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			_, _, fleet := testFreshFleet(t, shards)
			reg := registry.New(nil, registry.Config{NodeQuery: nq})
			defer reg.Close()
			if err := fleet.SetCalibrationFeatures(ds.X); err != nil {
				t.Fatal(err)
			}
			if err := reg.RegisterFleet("f", fleet); err != nil {
				t.Fatal(err)
			}
			if err := reg.EnableNodeQueries("f", ds.X); err != nil {
				t.Fatal(err)
			}
			s := NewMulti(reg, cfg)
			defer s.Close()
			rows, labels, err := s.PredictScores("f", ds.X)
			if err != nil {
				t.Fatalf("fleet PredictScores: %v", err)
			}
			requireRows(t, "full-graph", rows, labels, wantRows, wantLabels)
			for _, seeds := range seedSets {
				want, wantL, err := single.PredictNodesScores(oneVaultID, seeds)
				if err != nil {
					t.Fatalf("single PredictNodesScores(%v): %v", seeds, err)
				}
				got, gotL, err := s.PredictNodesScores("f", seeds)
				if err != nil {
					t.Fatalf("fleet PredictNodesScores(%v): %v", seeds, err)
				}
				requireRows(t, fmt.Sprintf("nodes %v", seeds), got, gotL, want, wantL)
			}
		})
	}
}

// requireRows fails unless every score row and label equals the wanted one
// bit for bit.
func requireRows(t *testing.T, what string, rows [][]float64, labels []int, want [][]float64, wantLabels []int) {
	t.Helper()
	if len(rows) != len(want) || len(labels) != len(wantLabels) {
		t.Fatalf("%s: %d rows / %d labels, want %d / %d", what, len(rows), len(labels), len(want), len(wantLabels))
	}
	for i := range want {
		if labels[i] != wantLabels[i] || len(rows[i]) != len(want[i]) {
			t.Fatalf("%s: row %d label %d (%d entries), want %d (%d)", what, i, labels[i], len(rows[i]), wantLabels[i], len(want[i]))
		}
		for c, v := range want[i] {
			if math.Float64bits(rows[i][c]) != math.Float64bits(v) {
				t.Fatalf("%s: row %d class %d = %v, want %v", what, i, c, rows[i][c], v)
			}
		}
	}
}

// TestHTTPStatusSentinels pins the sentinel→status contract for the
// capacity/policy/fault refusals — a throttle is the client's problem
// (429), while EPC exhaustion, a shard outage, a lost enclave and a
// blown deadline are transient server state (503) — and checks the
// sentinels stay pairwise disjoint, so one can never be mistaken for
// another by errors.Is-based handling (the registry evicts on EPC
// pressure; it must not evict on throttles, outages or lost enclaves,
// and a lost enclave must trip the breaker where an outage echo must
// not). Retryable statuses must carry a Retry-After header.
func TestHTTPStatusSentinels(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"rate limited", ErrRateLimited, http.StatusTooManyRequests},
		{"shard unavailable", ErrShardUnavailable, http.StatusServiceUnavailable},
		{"epc exhausted", enclave.ErrEPCExhausted, http.StatusServiceUnavailable},
		{"enclave lost", enclave.ErrEnclaveLost, http.StatusServiceUnavailable},
		{"deadline exceeded", context.DeadlineExceeded, http.StatusServiceUnavailable},
		{"wrapped rate limited", fmt.Errorf("api: %w", ErrRateLimited), http.StatusTooManyRequests},
		{"wrapped shard unavailable", fmt.Errorf("api: %w", ErrShardUnavailable), http.StatusServiceUnavailable},
		{"wrapped epc exhausted", fmt.Errorf("api: %w", enclave.ErrEPCExhausted), http.StatusServiceUnavailable},
		{"wrapped enclave lost", fmt.Errorf("api: %w", enclave.ErrEnclaveLost), http.StatusServiceUnavailable},
		{"double-wrapped enclave lost", fmt.Errorf("serve: %w", fmt.Errorf("core: shard 1: %w", enclave.ErrEnclaveLost)), http.StatusServiceUnavailable},
		{"wrapped deadline", fmt.Errorf("serve: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		if got := httpStatus(tc.err); got != tc.want {
			t.Errorf("httpStatus(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
	sentinels := []error{ErrRateLimited, ErrShardUnavailable, enclave.ErrEPCExhausted, enclave.ErrEnclaveLost}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinel %v is not disjoint from %v", a, b)
			}
		}
	}
	// Retryable refusals tell clients when to come back.
	for _, err := range []error{ErrRateLimited, ErrShardUnavailable, enclave.ErrEnclaveLost} {
		w := httptest.NewRecorder()
		httpError(w, httpStatus(err), err)
		if w.Header().Get("Retry-After") == "" {
			t.Errorf("httpError(%v) carries no Retry-After header", err)
		}
	}
	w := httptest.NewRecorder()
	httpError(w, httpStatus(core.ErrNodeOutOfRange), core.ErrNodeOutOfRange)
	if w.Header().Get("Retry-After") != "" {
		t.Error("client error (400) should not invite a retry")
	}
}

// TestShardedFanoutHammer drives the shard router from many goroutines at
// once — full-graph fan-outs, node queries across every shard, and a
// goroutine flipping shard availability under the traffic. Run under
// -race it is the concurrency regression test for the fleet barriers, the
// per-shard ECALL fan-out and the availability gating.
func TestShardedFanoutHammer(t *testing.T) {
	ds, ref, fleet := testShardedVault(t)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	nq := registry.NodeQueryConfig{}
	s, err := NewSharded(fleet, Config{Workers: 3, MaxBatch: 4, NodeQuery: &nq, Features: ds.X})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()

	const clients, perClient = 8, 4
	n := fleet.Nodes()
	errCh := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				if c%2 == 0 {
					got, err := s.Predict(ds.X)
					if errors.Is(err, ErrShardUnavailable) {
						continue // the flipper got there first; admission refusals are expected
					}
					if err != nil {
						errCh <- err
						return
					}
					for i := range want {
						if got[i] != want[i] {
							errCh <- errors.New("hammered result diverged from single-enclave reference")
							return
						}
					}
				} else {
					seed := (c*perClient + r) * (n / (clients * perClient))
					if _, err := s.PredictNodes([]int{seed}); err != nil && !errors.Is(err, ErrShardUnavailable) {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			sh := i % fleet.Shards()
			s.SetShardAvailable(sh, false)
			s.SetShardAvailable(sh, true)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed == 0 {
		t.Fatal("hammer completed no requests")
	}
}

// TestShardedAPISurface drives the HTTP front-end over a shard fleet:
// /predict answers bit-identically, score queries 403 unless scores are
// exposed, /metrics exposes the shard families beside the fleet entry's
// registry residency and /stats the per-shard section — and, the fleet
// having registered the features the API serves, the second answered
// /predict reads the fleet's public-half store.
func TestShardedAPISurface(t *testing.T) {
	ds, ref, fleet := testShardedVault(t)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	s, err := NewSharded(fleet, Config{Workers: 1, Features: ds.X})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	// The API opens node queries, but the server was started without
	// Config.NodeQuery: the refusal comes from the registry, not the API.
	api := NewShardedAPI(s, APIConfig{
		Vaults:      []APIVault{{ID: "cora/parallel", Dataset: "cora", Design: "parallel", Nodes: fleet.Nodes()}},
		Features:    func(string) *mat.Matrix { return ds.X },
		NodeQueries: true,
	})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"vault":"cora/parallel","nodes":[0,1,2]}`))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /predict: status %d, want 200", resp.StatusCode)
	}
	var pr apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding /predict response: %v", err)
	}
	resp.Body.Close()
	for i, n := range []int{0, 1, 2} {
		if pr.Labels[i] != want[n] {
			t.Fatalf("label for node %d = %d, want %d", n, pr.Labels[i], want[n])
		}
	}

	resp, err = http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"vault":"cora/parallel","scores":true}`))
	if err != nil {
		t.Fatalf("POST /predict scores: %v", err)
	}
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("score query against sharded fleet: status %d, want 403", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/predict_nodes", "application/json",
		strings.NewReader(`{"vault":"cora/parallel","nodes":[0,1]}`))
	if err != nil {
		t.Fatalf("POST /predict_nodes: %v", err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("node query against a fleet without Config.NodeQuery: status %d, want 501", resp.StatusCode)
	}
	resp.Body.Close()

	s.SetShardAvailable(0, false)
	resp, err = http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"vault":"cora/parallel"}`))
	if err != nil {
		t.Fatalf("POST /predict offline: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with shard offline: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	s.SetShardAvailable(0, true)

	resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"vault":"cora/parallel"}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST /predict: %v, %v", resp, err)
	}
	resp.Body.Close()

	body := getBody(t, srv.URL+"/metrics")
	for _, m := range []string{mHaloBytes, mShardEPCUsed, mShardFanout, mEPCUsed, mECalls,
		mBackbonePasses + `{result="computed"} 1`, mBackbonePasses + `{result="reused"} 1`} {
		if !strings.Contains(body, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	if !strings.Contains(body, mVaultResident) {
		t.Error("/metrics omits the fleet entry's registry residency")
	}

	if fleet.Shard(0).EmbeddingStoreBytes() == 0 {
		t.Error("two registered-features passes left the fleet's store empty")
	}
	body = getBody(t, srv.URL+"/stats")
	for _, k := range []string{`"shards"`, `"halo_bytes"`, `"epc_used_bytes"`, `"passes_computed":1`, `"passes_reused":1`,
		fmt.Sprintf(`"store_bytes":{"cora/parallel":%d}`, fleet.Shard(0).EmbeddingStoreBytes())} {
		if !strings.Contains(body, k) {
			t.Errorf("/stats missing %s", k)
		}
	}
	body = getBody(t, srv.URL+"/vaults")
	if !strings.Contains(body, `"resident":true`) {
		t.Error("/vaults does not report the sharded vault as resident")
	}
}

// getBody fetches url and returns its body, failing the test on any
// transport or status error.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return string(raw)
}
