package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
)

// obsAPI is testAPI with the flight recorder wired end to end: one span
// ring feeds the registry, every planned workspace and GET /debug/trace.
func obsAPI(t *testing.T) (*datasets.Dataset, *API, *obs.Ring) {
	t.Helper()
	ring := obs.NewRing(4096)
	nqCfg := *nodeQueryCfg()
	ds, _, reg, _ := multiFleet(t, 4, registry.Config{NodeQuery: &nqCfg, Recorder: ring})
	if err := reg.EnableNodeQueries("parallel", ds.X); err != nil {
		reg.Close()
		t.Fatalf("EnableNodeQueries: %v", err)
	}
	srv := NewMulti(reg, Config{Workers: 2, MaxBatch: 4})
	api := NewAPI(srv, reg, APIConfig{
		Vaults: []APIVault{
			{ID: "parallel", Dataset: "cora", Design: "parallel", Nodes: ds.Graph.N()},
			{ID: "series", Dataset: "cora", Design: "series", Nodes: ds.Graph.N()},
		},
		Features:    func(string) *mat.Matrix { return ds.X },
		NodeQueries: true,
		Trace:       ring,
	})
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return ds, api, ring
}

// scrape GETs path off the test server and returns the body.
func scrape(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// parseProm parses Prometheus text exposition into series → value,
// failing the test on any malformed sample line.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series, raw := line[:i], line[i+1:]
		if !strings.HasPrefix(series, "gnnvault_") {
			t.Fatalf("unexpected metric family in %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestMetricsEndToEndScrape drives real traffic through the HTTP API and
// then checks the /metrics exposition parses and reconciles with it:
// per-endpoint request histogram counts, per-vault error attribution, the
// worker-pool counters and a live enclave ledger. The parallel vault has
// registered the features the API serves, so of its full-graph passes only
// the first runs the backbone: /metrics and /stats must count it so, and
// /stats must show its public-half store (and nothing for series, which
// registered none).
func TestMetricsEndToEndScrape(t *testing.T) {
	ds, api, _ := obsAPI(t)
	if err := api.reg.Vault("parallel").SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	const fulls, nodes = 3, 2
	for i := 0; i < fulls; i++ {
		if code, out := postJSON(t, ts, "/predict", "c1", map[string]any{"vault": "parallel", "nodes": []int{0, 1}}); code != http.StatusOK {
			t.Fatalf("predict %d: status %d (%v)", i, code, out)
		}
	}
	for i := 0; i < nodes; i++ {
		if code, out := postJSON(t, ts, "/predict_nodes", "c1", map[string]any{"vault": "parallel", "nodes": []int{1, 2}}); code != http.StatusOK {
			t.Fatalf("predict_nodes %d: status %d (%v)", i, code, out)
		}
	}
	// series never enabled node queries: a 501 that must surface as one
	// error attributed to the series vault.
	if code, _ := postJSON(t, ts, "/predict_nodes", "c1", map[string]any{"vault": "series", "nodes": []int{1, 2}}); code != http.StatusNotImplemented {
		t.Fatalf("node query on series: status %d, want 501", code)
	}

	code, body := scrape(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	m := parseProm(t, body)

	wantCounts := map[string]float64{
		`gnnvault_request_seconds_count{endpoint="predict",vault="parallel",precision="fp64"}`:       fulls,
		`gnnvault_request_seconds_count{endpoint="predict_nodes",vault="parallel",precision="fp64"}`: nodes,
		`gnnvault_request_seconds_count{endpoint="predict_nodes",vault="series",precision="fp64"}`:   1,
		`gnnvault_request_errors_total{vault="series"}`:                                              1,
		`gnnvault_request_errors_total{vault="parallel"}`:                                            0,
		`gnnvault_rate_limited_total{vault="parallel"}`:                                              0,
		`gnnvault_serve_completed_total`:                                                             fulls + nodes,
		`gnnvault_serve_errors_total`:                                                                1,
		`gnnvault_backbone_passes_total{result="computed"}`:                                          1,
		`gnnvault_backbone_passes_total{result="reused"}`:                                            fulls - 1,
	}
	for series, want := range wantCounts {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for series, floor := range map[string]float64{
		`gnnvault_ecalls_total`:         1,
		`gnnvault_ecall_bytes_in_total`: 1,
		`gnnvault_epc_limit_bytes`:      1,
		`gnnvault_plans_total`:          1,
	} {
		if m[series] < floor {
			t.Errorf("%s = %v, want >= %v", series, m[series], floor)
		}
	}
	for _, series := range []string{
		`gnnvault_vault_resident{vault="parallel"}`,
		`gnnvault_vault_resident{vault="series"}`,
		`gnnvault_serve_latency_seconds_count{endpoint="predict"}`,
		`gnnvault_epc_used_bytes`, `gnnvault_epc_free_bytes`,
		`gnnvault_ocalls_total`, `gnnvault_ecall_bytes_out_total`,
		`gnnvault_page_swaps_total`, `gnnvault_spill_bytes_total`,
		`gnnvault_serve_requests_total`, `gnnvault_serve_batches_total`,
		`gnnvault_evictions_total`,
	} {
		if _, ok := m[series]; !ok {
			t.Errorf("series %s missing from scrape", series)
		}
	}

	code, body = scrape(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	var stats struct {
		Backbone struct {
			Computed uint64           `json:"passes_computed"`
			Reused   uint64           `json:"passes_reused"`
			Store    map[string]int64 `json:"store_bytes"`
		} `json:"backbone"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if b := stats.Backbone; b.Computed != 1 || b.Reused != fulls-1 || b.Store["parallel"] <= 0 || b.Store["series"] != 0 {
		t.Errorf("/stats backbone section %+v, want 1 computed, %d reused, a filled parallel store and an empty series one", b, fulls-1)
	}
}

// jsonSpan mirrors the /debug/trace span tree for decoding.
type jsonSpan struct {
	Kind     string      `json:"kind"`
	Op       string      `json:"op"`
	Rows     int32       `json:"rows"`
	Tiles    int32       `json:"tiles"`
	DurUS    float64     `json:"dur_us"`
	Children []*jsonSpan `json:"children"`
}

// kindCounts tallies span kinds over a subtree.
func kindCounts(s *jsonSpan, into map[string]int) {
	into[s.Kind]++
	for _, c := range s.Children {
		kindCounts(c, into)
	}
}

// findChild returns the first direct child with the given kind.
func findChild(s *jsonSpan, kind string) *jsonSpan {
	for _, c := range s.Children {
		if c.Kind == kind {
			return c
		}
	}
	return nil
}

// TestDebugTraceSpanTrees checks GET /debug/trace reassembles the flight
// recorder into per-query trees: a node query shows its expand → induce →
// backbone → ECALL stages with per-op spans inside the ECALL, and a
// full-graph query shows backbone and ECALL stages wrapping machine ops —
// or, once the vault has registered the served features and a pass has
// filled its store, a childless "backbone (reused)" stage.
func TestDebugTraceSpanTrees(t *testing.T) {
	ds, api, ring := obsAPI(t)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	if _, err := api.PredictNodes("c1", "parallel", []int{1, 2}); err != nil {
		t.Fatalf("PredictNodes: %v", err)
	}
	if _, err := api.Predict("c1", "parallel", []int{0, 1}); err != nil {
		t.Fatalf("Predict: %v", err)
	}

	code, body := scrape(t, ts, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", code, body)
	}
	var resp struct {
		Capacity int `json:"capacity"`
		Recorded int `json:"recorded"`
		Traces   []struct {
			Trace uint64    `json:"trace"`
			Root  *jsonSpan `json:"root"`
		} `json:"traces"`
		Events []*jsonSpan `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding trace response: %v", err)
	}
	if resp.Capacity != ring.Cap() || resp.Recorded == 0 {
		t.Fatalf("capacity %d recorded %d, want capacity %d and recorded > 0",
			resp.Capacity, resp.Recorded, ring.Cap())
	}
	// Registry plan events are trace-less and must surface separately.
	planEvents := 0
	for _, e := range resp.Events {
		if e.Kind == "plan" {
			planEvents++
		}
	}
	if planEvents == 0 {
		t.Errorf("no plan events in trace response")
	}

	var nodeTree, fullTree *jsonSpan
	for _, tr := range resp.Traces {
		switch tr.Root.Kind {
		case "node_query":
			nodeTree = tr.Root
		case "query":
			fullTree = tr.Root
		}
	}
	if nodeTree == nil {
		t.Fatalf("no node_query trace captured")
	}
	counts := map[string]int{}
	kindCounts(nodeTree, counts)
	for _, stage := range []string{"expand", "induce", "backbone", "ecall"} {
		if counts[stage] == 0 {
			t.Errorf("node query trace missing %s stage (have %v)", stage, counts)
		}
	}
	if ecall := findChild(nodeTree, "ecall"); ecall != nil {
		sub := map[string]int{}
		kindCounts(ecall, sub)
		if sub["induce_private"] == 0 {
			t.Errorf("ECALL span missing private induction child (have %v)", sub)
		}
		if sub["op"] == 0 {
			t.Errorf("ECALL span has no rectifier op spans (have %v)", sub)
		}
	}

	if fullTree == nil {
		t.Fatalf("no full-graph query trace captured")
	}
	counts = map[string]int{}
	kindCounts(fullTree, counts)
	if counts["backbone"] == 0 || counts["ecall"] == 0 || counts["op"] == 0 {
		t.Errorf("full-graph trace missing stages: %v", counts)
	}

	if err := api.reg.Vault("parallel").SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // fills the store, then reads it
		if _, err := api.Predict("c1", "parallel", nil); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	_, body = scrape(t, ts, "/debug/trace")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding trace response: %v", err)
	}
	last := resp.Traces[len(resp.Traces)-1].Root
	if stage := findChild(last, "backbone (reused)"); stage == nil || len(stage.Children) != 0 || stage.Rows != 0 {
		t.Errorf("the pass over a filled store shows stage %+v under %+v, want a childless \"backbone (reused)\"", stage, last)
	}
	if findChild(last, "ecall") == nil {
		t.Errorf("the pass over a filled store lost its ECALL stage: %+v", last)
	}

	// ?n must bound the window and reject garbage.
	if code, _ := scrape(t, ts, "/debug/trace?n=1"); code != http.StatusOK {
		t.Fatalf("/debug/trace?n=1 status %d", code)
	}
	if code, _ := scrape(t, ts, "/debug/trace?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/debug/trace?n=bogus status %d, want 400", code)
	}
}

// TestTraceDisabled pins the 404 contract when no ring is configured.
func TestTraceDisabled(t *testing.T) {
	_, api, _, _ := testAPI(t, Config{Workers: 1}, nil)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	if code, _ := scrape(t, ts, "/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("/debug/trace without ring: status %d, want 404", code)
	}
}

// TestMetricsTraceRaceHammer scrapes /metrics and /debug/trace while
// concurrent clients drive both predict endpoints, then reconciles the
// final scrape against the issued traffic. Run under -race this pins the
// telemetry core's concurrency contract.
func TestMetricsTraceRaceHammer(t *testing.T) {
	_, api, _ := obsAPI(t)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	const clients, perClient, scrapes = 3, 6, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				var err error
				if r%2 == 1 {
					_, err = api.PredictNodes(fmt.Sprintf("c%d", c), "parallel", []int{1, 2})
				} else {
					_, err = api.Predict(fmt.Sprintf("c%d", c), "parallel", []int{0, 1, 2})
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	for _, path := range []string{"/metrics", "/debug/trace"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				if code, _ := scrape(t, ts, path); code != http.StatusOK {
					errCh <- fmt.Errorf("%s scrape status %d", path, code)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("hammer: %v", err)
	}

	_, body := scrape(t, ts, "/metrics")
	m := parseProm(t, body)
	full := m[`gnnvault_request_seconds_count{endpoint="predict",vault="parallel",precision="fp64"}`]
	node := m[`gnnvault_request_seconds_count{endpoint="predict_nodes",vault="parallel",precision="fp64"}`]
	if int(full) != clients*perClient/2 || int(node) != clients*perClient/2 {
		t.Errorf("request counts full=%v node=%v, want %d each", full, node, clients*perClient/2)
	}
	if got, want := m[`gnnvault_serve_completed_total`], float64(clients*perClient); got != want {
		t.Errorf("serve_completed_total = %v, want %v", got, want)
	}
	if m[`gnnvault_serve_requests_total`] != m[`gnnvault_serve_completed_total`]+m[`gnnvault_serve_errors_total`] {
		t.Errorf("request accounting does not reconcile: %v != %v + %v",
			m[`gnnvault_serve_requests_total`], m[`gnnvault_serve_completed_total`], m[`gnnvault_serve_errors_total`])
	}
}

// TestDebugTraceShowsQuantise: an int8 plan's boundary quantisation is a
// line of its own in /debug/trace — one "quantise" op span under every
// ECALL, beside the rectifier's ops — and reads 0 rows on the passes over
// the registered features whose codes an earlier pass left in the machine
// (the same convention as "backbone (reused)"). Planning runs no pass, so
// the workspace's first one quantises every row.
func TestDebugTraceShowsQuantise(t *testing.T) {
	ring := obs.NewRing(4096)
	ds, _, reg, _ := multiFleet(t, 4, registry.Config{
		Plan:     core.PlanConfig{Precision: core.PrecisionInt8, MinAgreement: 0.5},
		Recorder: ring,
	})
	defer reg.Close()
	if err := reg.Vault("parallel").SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, Config{Workers: 1})
	defer srv.Close()
	api := NewAPI(srv, reg, APIConfig{
		Vaults:   []APIVault{{ID: "parallel", Dataset: "cora", Design: "parallel", Nodes: ds.Graph.N()}},
		Features: func(string) *mat.Matrix { return ds.X },
		Trace:    ring,
	})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	const passes = 3
	for i := 0; i < passes; i++ {
		if _, err := api.Predict("c1", "parallel", nil); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	_, body := scrape(t, ts, "/debug/trace")
	var resp struct {
		Traces []struct {
			Root *jsonSpan `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding trace response: %v", err)
	}
	queries, quantised := 0, 0
	for _, tr := range resp.Traces {
		if tr.Root.Kind != "query" {
			continue
		}
		queries++
		ecall := findChild(tr.Root, "ecall")
		if ecall == nil {
			t.Fatalf("query without an ECALL stage: %+v", tr.Root)
		}
		var quantise []*jsonSpan
		ops := 0
		for _, c := range ecall.Children {
			switch {
			case c.Kind == "op" && c.Op == "quantise":
				quantise = append(quantise, c)
			case c.Kind == "op":
				ops++
			}
		}
		if len(quantise) != 1 || ops == 0 {
			t.Fatalf("ECALL shows %d quantise spans beside %d ops, want 1 beside the rectifier's", len(quantise), ops)
		}
		switch quantise[0].Rows {
		case 0:
		case int32(ds.Graph.N()):
			quantised++
		default:
			t.Errorf("registered-features pass quantised %d rows, want 0 or all %d", quantise[0].Rows, ds.Graph.N())
		}
	}
	if queries != passes {
		t.Fatalf("%d query traces, want %d", queries, passes)
	}
	if quantised != 1 {
		t.Errorf("%d of %d passes quantised, want only the workspace's first (the store's codes were in place after it)", quantised, passes)
	}
}
