package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/mat"
	"gnnvault/internal/registry"
)

// testAPI stands up the full HTTP surface over a two-vault fleet with
// node queries enabled on "parallel".
func testAPI(t testing.TB, scfg Config, limit *RateLimit) (*datasets.Dataset, *API, *MultiServer, *registry.Registry) {
	t.Helper()
	nqCfg := *nodeQueryCfg()
	ds, _, reg, _ := multiFleet(t, 4, registry.Config{NodeQuery: &nqCfg})
	if err := reg.EnableNodeQueries("parallel", ds.X); err != nil {
		reg.Close()
		t.Fatalf("EnableNodeQueries: %v", err)
	}
	srv := NewMulti(reg, scfg)
	api := NewAPI(srv, reg, APIConfig{
		Vaults: []APIVault{
			{ID: "parallel", Dataset: "cora", Design: "parallel", Nodes: ds.Graph.N()},
			{ID: "series", Dataset: "cora", Design: "series", Nodes: ds.Graph.N()},
		},
		Features:    func(string) *mat.Matrix { return ds.X },
		NodeQueries: true,
		Limit:       limit,
	})
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return ds, api, srv, reg
}

// postJSON drives one predict endpoint and decodes the response.
func postJSON(t *testing.T, ts *httptest.Server, path, client string, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("X-Client", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

// TestAPIStatusMapping pins every error class to its HTTP status: 404 for
// unknown vaults, 400 for malformed queries, 413 for an oversized body,
// 403 for score queries
// against a label-only fleet, 429 for throttled clients, 501 for node
// queries on a vault without them.
func TestAPIStatusMapping(t *testing.T) {
	_, api, _, _ := testAPI(t, Config{Workers: 1}, &RateLimit{Budget: 40})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	if code, _ := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "nope", "nodes": []int{0}}); code != http.StatusNotFound {
		t.Fatalf("unknown vault: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "parallel", "nodes": []int{-1}}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts, "/predict_nodes", "c1", map[string]any{"vault": "parallel"}); code != http.StatusBadRequest {
		t.Fatalf("empty nodes: status %d, want 400", code)
	}
	if code, _ := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "parallel", "nodes": []int{0}, "scores": true}); code != http.StatusForbidden {
		t.Fatalf("scores on label-only fleet: status %d, want 403", code)
	}
	// More ids than the vault has nodes is refused on its length, before
	// any id is looked at — on both endpoints, duplicates or not.
	flood := make([]int, api.byID["parallel"].Nodes+1)
	for _, path := range []string{"/predict", "/predict_nodes"} {
		if code, _ := postJSON(t, ts, path, "c1", map[string]any{"vault": "parallel", "nodes": flood}); code != http.StatusBadRequest {
			t.Fatalf("%s with %d ids: status %d, want 400", path, len(flood), code)
		}
	}
	// A body that is not JSON is 400; one over the 1 MiB bound is 413 and
	// is cut off there, however it would have parsed.
	for _, c := range []struct {
		name string
		body []byte
		want int
	}{
		{"truncated JSON", []byte(`{"vault":"parallel","nodes":[1,`), http.StatusBadRequest},
		{"oversized body", append(bytes.Repeat([]byte(" "), maxRequestBytes), []byte(`{"vault":"parallel"}`)...), http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/predict", "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// series never enabled node queries at the registry; the fleet flag is
	// on, so the failure surfaces from the registry as 501.
	if code, _ := postJSON(t, ts, "/predict_nodes", "c1", map[string]any{"vault": "series", "nodes": []int{1, 2}}); code != http.StatusNotImplemented {
		t.Fatalf("node query without registry enablement: status %d, want 501", code)
	}

	// Budget 40: a 30-label query fits, the next 30 is throttled, and a
	// different client is unaffected.
	nodes := make([]int, 30)
	for i := range nodes {
		nodes[i] = i
	}
	if code, _ := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "parallel", "nodes": nodes}); code != http.StatusOK {
		t.Fatalf("within budget: status %d, want 200", code)
	}
	if code, _ := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "parallel", "nodes": nodes}); code != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429", code)
	}
	if code, _ := postJSON(t, ts, "/predict", "c2", map[string]any{"vault": "parallel", "nodes": nodes}); code != http.StatusOK {
		t.Fatalf("fresh client: status %d, want 200", code)
	}
}

// TestAPIRateLimitTyped checks the programmatic surface returns the
// sentinel the harness keys on.
// TestWriteJSONUnencodableIs500: a body JSON cannot carry is refused before
// the header goes out, so the client gets a 500 with an error body, never
// the intended status with an empty body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"scores": []float64{0.5, math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q (%v), want a JSON error", rec.Body.String(), err)
	}
}

func TestAPIRateLimitTyped(t *testing.T) {
	_, api, _, _ := testAPI(t, Config{Workers: 1}, &RateLimit{Budget: 5})
	if _, err := api.Predict("atk", "parallel", []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if _, err := api.Predict("atk", "parallel", []int{5}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over budget: %v, want ErrRateLimited", err)
	}
}

// FuzzAPIRequest feeds arbitrary bytes as the body of both predict
// endpoints: the handler never panics, and every answer is 200 or one of
// httpStatus's statuses.
func FuzzAPIRequest(f *testing.F) {
	_, api, _, _ := testAPI(f, Config{Workers: 1}, nil)
	h := api.Handler()
	for _, seed := range []string{
		`{"vault":"parallel","nodes":[0,1]}`,
		`{"vault":"parallel","nodes":[2707],"scores":true}`,
		`{"vault":"series","nodes":[1,2]}`,
		`{"vault":"nope"}`,
		`{"vault":"parallel","nodes":[-1]}`,
		`{"vault":"parallel","nodes":[1e30]}`,
		`{"vault":"parallel","nodes":[1,`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	statuses := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusForbidden: true,
		http.StatusNotFound: true, http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests: true, http.StatusNotImplemented: true,
		http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/predict", "/predict_nodes"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if !statuses[w.Code] {
				t.Fatalf("POST %s %q: status %d outside the API's table", path, body, w.Code)
			}
		}
	})
}

// TestHTTPHammer is the -race regression test for the HTTP layer:
// concurrent /predict, /predict_nodes and /stats clients against one
// MultiServer. Every request must complete (no drops), every predict
// answer must match the reference labels, and the serving counters must
// reconcile: requests == completed + errors with zero errors.
func TestHTTPHammer(t *testing.T) {
	ds, api, srv, _ := testAPI(t, Config{Workers: 3, MaxBatch: 4}, nil)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	ref, err := srv.Predict("parallel", ds.X)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	before := srv.Stats()

	const clients, perClient = 8, 6
	errCh := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				switch r % 3 {
				case 0: // full-graph with node selection
					nodes := []int{(c*31 + r) % ds.Graph.N(), (c*17 + r*7 + 1) % ds.Graph.N()}
					code, out := postJSON(t, ts, "/predict", fmt.Sprintf("c%d", c),
						map[string]any{"vault": "parallel", "nodes": nodes})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("predict status %d: %v", code, out)
						return
					}
					labels := out["labels"].([]any)
					for i, n := range nodes {
						if int(labels[i].(float64)) != ref[n] {
							errCh <- fmt.Errorf("label[%d] diverged", n)
							return
						}
					}
				case 1: // sampled subgraph path
					nodes := []int{(c*13 + r*3) % ds.Graph.N(), (c*7 + r*11 + 2) % ds.Graph.N()}
					if nodes[0] == nodes[1] {
						nodes[1] = (nodes[1] + 1) % ds.Graph.N()
					}
					code, out := postJSON(t, ts, "/predict_nodes", fmt.Sprintf("c%d", c),
						map[string]any{"vault": "parallel", "nodes": nodes})
					if code != http.StatusOK {
						errCh <- fmt.Errorf("predict_nodes status %d: %v", code, out)
						return
					}
				case 2: // stats beside traffic
					resp, err := ts.Client().Get(ts.URL + "/stats")
					if err != nil {
						errCh <- err
						return
					}
					resp.Body.Close() //nolint:errcheck
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("stats status %d", resp.StatusCode)
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

	st := srv.Stats()
	issued := st.Requests - before.Requests
	answered := (st.Completed + st.Errors) - (before.Completed + before.Errors)
	if issued != answered {
		t.Fatalf("dropped requests: issued %d, answered %d", issued, answered)
	}
	if st.Errors != before.Errors {
		t.Fatalf("hammer produced %d serving errors", st.Errors-before.Errors)
	}
	wantServed := uint64(clients * perClient * 2 / 3) // /stats never hits the worker pool
	if issued != wantServed {
		t.Fatalf("served %d inference requests, want %d", issued, wantServed)
	}
}
