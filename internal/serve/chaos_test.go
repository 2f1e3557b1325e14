package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// chaosConfig is the fast-recovery serving config the chaos tests share:
// millisecond backoff so outages resolve inside the test budget, a
// deterministic seed so reruns replay the same jitter schedule.
func chaosConfig(x *mat.Matrix) Config {
	nq := registry.NodeQueryConfig{}
	return Config{
		Workers:         2,
		MaxBatch:        4,
		NodeQuery:       &nq,
		Features:        x,
		MaxRetries:      2,
		RecoveryBackoff: time.Millisecond,
		Seed:            7,
	}
}

// TestShardedBreakerTripAndRecover is the deterministic fault/recovery
// walk: a fault plan kills one shard's enclave mid-fan-out, the client
// sees the attributed ErrEnclaveLost, the breaker trips and the
// background loop re-seals and rejoins the shard, after which serving is
// bit-identical to the pre-fault baseline and the first success closes
// the breaker. Degraded serving is pinned via an administrative outage:
// node queries on healthy shards keep answering and count as degraded.
func TestShardedBreakerTripAndRecover(t *testing.T) {
	ds, ref, fleet := testFreshFleet(t, 3)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	ring := obs.NewRing(64)
	cfg := chaosConfig(ds.X)
	cfg.Trace = ring
	s, err := NewSharded(fleet, cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	if _, err := s.Predict(shardedID, ds.X); err != nil {
		t.Fatalf("baseline Predict: %v", err)
	}

	// Administrative outage (no breaker, no auto-recovery): healthy-shard
	// node queries keep serving and count as degraded.
	s.setShardAvailable(shardedID, 2, false)
	if _, err := s.PredictNodes(shardedID, []int{0}); err != nil {
		t.Fatalf("node query on healthy shard during outage: %v", err)
	}
	if got := s.Stats().Degraded; got == 0 {
		t.Fatal("degraded counter did not count the outage-time answer")
	}
	if _, err := s.Predict(shardedID, ds.X); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("full-graph during administrative outage: %v, want ErrShardUnavailable", err)
	}
	if st := s.ShardStats(); st.Restarts[2] != 0 {
		t.Fatal("administrative outage must not trigger the recovery loop")
	}
	s.setShardAvailable(shardedID, 2, true)

	// Chaos: shard 1's next ECALL aborts, losing the enclave for good.
	fleet.Shard(1).Enclave.SetFaultPlan(&enclave.FaultPlan{AbortECalls: []int64{0}})
	if _, err := s.Predict(shardedID, ds.X); !errors.Is(err, enclave.ErrEnclaveLost) {
		t.Fatalf("faulted Predict: %v, want ErrEnclaveLost", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.ShardStats()
		if st.Restarts[1] >= 1 && st.Available[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never recovered: %+v", s.ShardStats())
		}
		time.Sleep(time.Millisecond)
	}
	got, err := s.Predict(shardedID, ds.X)
	if err != nil {
		t.Fatalf("post-recovery Predict: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-recovery label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st := s.ShardStats(); st.Breaker[1] != breakerClosed {
		t.Fatalf("breaker[1] = %d after a served success, want closed", st.Breaker[1])
	}
	var sawFault, sawRecover bool
	for _, sp := range ring.Last(0) {
		sawFault = sawFault || (sp.Kind == obs.SpanFault && sp.Rows == 1)
		sawRecover = sawRecover || (sp.Kind == obs.SpanRecover && sp.Rows == 1)
	}
	if !sawFault || !sawRecover {
		t.Fatalf("flight recorder missing fault/recover events (fault %v, recover %v)", sawFault, sawRecover)
	}
}

// TestShardedDeadline pins deadline-bounded serving: with a deadline no
// request can meet, both endpoints fail with context.DeadlineExceeded
// (not a hang, not a shard fault), the deadline counter counts them, no
// enclave is blamed, and the accounting still reconciles.
func TestShardedDeadline(t *testing.T) {
	ds, _, fleet := testShardedVault(t)
	cfg := chaosConfig(ds.X)
	cfg.MaxRetries = 0
	cfg.Deadline = time.Nanosecond
	s, err := NewSharded(fleet, cfg)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	if _, err := s.Predict(shardedID, ds.X); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Predict under 1ns deadline: %v, want DeadlineExceeded", err)
	}
	if _, err := s.PredictNodes(shardedID, []int{0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PredictNodes under 1ns deadline: %v, want DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.DeadlineExceeded != 2 {
		t.Fatalf("DeadlineExceeded = %d, want 2", st.DeadlineExceeded)
	}
	if st.Requests != st.Completed+st.Errors {
		t.Fatalf("counters do not reconcile: %d requests, %d completed + %d errors", st.Requests, st.Completed, st.Errors)
	}
	for sh, tripped := range s.ShardStats().Breaker {
		if tripped != breakerClosed {
			t.Fatalf("deadline failures tripped shard %d's breaker", sh)
		}
	}
}

// TestSetShardAvailableMidPass is the regression for the availability
// flip racing an in-flight fan-out: the pass must end in a clean result
// or a clean ErrShardUnavailable — never a hung halo barrier (the test
// itself would time out) and never a torn read.
func TestSetShardAvailableMidPass(t *testing.T) {
	ds, ref, fleet := testFreshFleet(t, 3)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	s, err := NewSharded(fleet, chaosConfig(ds.X))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the flipper: takes shard 1 down and up as fast as it can
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.setShardAvailable(shardedID, 1, false)
			s.setShardAvailable(shardedID, 1, true)
		}
	}()
	for i := 0; i < 40; i++ {
		got, err := s.Predict(shardedID, ds.X)
		if err != nil {
			if !errors.Is(err, ErrShardUnavailable) {
				close(stop)
				t.Fatalf("mid-pass flip produced %v, want nil or ErrShardUnavailable", err)
			}
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				close(stop)
				t.Fatalf("pass %d label[%d] = %d, want %d (torn read under flip)", i, j, got[j], want[j])
			}
		}
	}
	close(stop)
	wg.Wait()
	if _, err := s.Predict(shardedID, ds.X); err != nil {
		t.Fatalf("Predict after the flipper settled: %v", err)
	}
}

// TestShardedHealthEndpoints pins the probe contract: /healthz stays 200
// through an outage (degraded is not dead), /readyz drops to 503 with
// Retry-After and the per-shard detail while any shard is out, and both
// report 200 on a healthy fleet.
func TestShardedHealthEndpoints(t *testing.T) {
	ds, _, fleet := testShardedVault(t)
	s, err := NewSharded(fleet, Config{Workers: 1})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	api := NewShardedAPI(s, APIConfig{
		Vaults:   []APIVault{{ID: "cora/parallel", Dataset: "cora", Design: "parallel", Nodes: fleet.Nodes()}},
		Features: func(string) *mat.Matrix { return ds.X },
	})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	check := func(path string, want int, wantRetry bool) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		if got := resp.Header.Get("Retry-After") != ""; got != wantRetry {
			t.Fatalf("GET %s: Retry-After present = %v, want %v", path, got, wantRetry)
		}
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	check("/healthz", http.StatusOK, false)
	body := check("/readyz", http.StatusOK, false)
	if !strings.Contains(body, `"ready"`) {
		t.Fatalf("/readyz healthy body = %s", body)
	}

	s.setShardAvailable(shardedID, 1, false)
	check("/healthz", http.StatusOK, false)
	body = check("/readyz", http.StatusServiceUnavailable, true)
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, `"available":[true,false,true]`) {
		t.Fatalf("/readyz degraded body = %s", body)
	}
	s.setShardAvailable(shardedID, 1, true)
	check("/readyz", http.StatusOK, false)
}

// TestShardedChaosHammer is the chaos soak: seeded random enclave kills
// (through fault plans and outright loss) land on a 3-shard fleet while
// clients hammer /predict, /predict_nodes and /metrics over HTTP. The
// invariants: no deadlock (the test finishes), every response is either
// a correct 200 — full-graph answers must match the single-enclave
// reference bit for bit — or a retryable 503 with Retry-After, the
// worker-pool accounting reconciles exactly, and once the chaos stops
// the fleet recovers to serve bit-identical answers again.
func TestShardedChaosHammer(t *testing.T) {
	ds, ref, fleet := testFreshFleet(t, 3)
	want, _, err := ref.Predict(ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	s, err := NewSharded(fleet, chaosConfig(ds.X))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer s.Close()
	api := NewShardedAPI(s, APIConfig{
		Vaults:      []APIVault{{ID: "cora/parallel", Dataset: "cora", Design: "parallel", Nodes: fleet.Nodes()}},
		Features:    func(string) *mat.Matrix { return ds.X },
		NodeQueries: true,
	})
	hs := httptest.NewServer(api.Handler())
	defer hs.Close()

	const clients, perClient, kills = 6, 6, 4
	n := fleet.Nodes()
	errCh := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				switch c % 3 {
				case 0: // full-graph over HTTP; 200 bodies must be bit-identical
					resp, err := http.Post(hs.URL+"/predict", "application/json",
						strings.NewReader(`{"vault":"cora/parallel"}`))
					if err != nil {
						errCh <- err
						return
					}
					switch resp.StatusCode {
					case http.StatusOK:
						var pr apiResponse
						if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
							errCh <- err
						} else {
							for i := range want {
								if pr.Labels[i] != want[i] {
									errCh <- fmt.Errorf("mid-chaos answer diverged at node %d", i)
									break
								}
							}
						}
					case http.StatusServiceUnavailable:
						if resp.Header.Get("Retry-After") == "" {
							errCh <- errors.New("503 without Retry-After")
						}
					default:
						errCh <- fmt.Errorf("unexpected /predict status %d", resp.StatusCode)
					}
					resp.Body.Close()
				case 1: // node queries spread across the shards
					seed := (c*perClient + r*97) % n
					resp, err := http.Post(hs.URL+"/predict_nodes", "application/json",
						strings.NewReader(fmt.Sprintf(`{"vault":"cora/parallel","nodes":[%d]}`, seed)))
					if err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
						errCh <- fmt.Errorf("unexpected /predict_nodes status %d", resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				default: // metrics scrapes race the counters and swaps
					resp, err := http.Get(hs.URL + "/metrics")
					if err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("/metrics status %d", resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // the chaos: seeded kills, half via fault plan, half outright
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for k := 0; k < kills; k++ {
			time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
			sh := rng.Intn(fleet.Shards())
			if k%2 == 0 {
				fleet.Shard(sh).Enclave.SetFaultPlan(&enclave.FaultPlan{AbortRate: 1, Seed: int64(k + 1)})
			} else {
				fleet.Shard(sh).Enclave.MarkLost()
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Chaos is over; the fleet must converge back to healthy and serve
	// bit-identical answers. A kill can land after the last request, so
	// probe until the recovery loops settle.
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, err := s.Predict(shardedID, ds.X)
		if err == nil {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("post-chaos label[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered from chaos: %v (%+v)", err, s.ShardStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.Requests != st.Completed+st.Errors {
		t.Fatalf("counters do not reconcile: %d requests, %d completed + %d errors",
			st.Requests, st.Completed, st.Errors)
	}
	var restarts uint64
	for _, r := range s.ShardStats().Restarts {
		restarts += r
	}
	if restarts == 0 {
		t.Fatal("chaos killed shards but no recovery was recorded")
	}
}
