package main

import (
	"fmt"
	"math"
	"regexp"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/mat"
)

// Tests for the benchmark's own arithmetic. They run no load.

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		p         float64
		wantValue float64
		wantUsed  float64
	}{
		{1000, 0.95, 950, 0.95},      // 50 samples beyond: p95 as asked
		{200, 0.95, 190, 0.95},       // exactly 10 beyond
		{199, 0.95, 189, 189. / 199}, // p95 would leave 9 beyond: fall to the rank with 10
		{100, 0.95, 90, 0.90},
		{30, 0.95, 20, 20. / 30},
		{12, 0.95, 7, 7. / 12}, // too few for any tail: the median rank
		{1, 0.95, 1, 1},
		{1000, 0.50, 500, 0.50},
	}
	for _, c := range cases {
		got, used := percentile(seq(c.n), c.p)
		if got != c.wantValue || math.Abs(used-c.wantUsed) > 1e-12 {
			t.Errorf("percentile(n=%d, p=%.2f) = %v at %.4f, want %v at %.4f", c.n, c.p, got, used, c.wantValue, c.wantUsed)
		}
		if beyond := c.n - int(got); c.n > 2*tailSamples && beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, used := percentile(nil, 0.95); v != 0 || used != 0 {
		t.Errorf("percentile of nothing = %v, %v", v, used)
	}
}

func TestSliceMedianRate(t *testing.T) {
	// 10 s window of 0.1 s rounds, 10 completions each: 100 a second. One
	// round in the second slice stalls for 1.5 s. The mean rate drops to
	// 87/s; the slice median does not move.
	var rounds []round
	for i := 0; i < 100; i++ {
		rounds = append(rounds, round{StartS: float64(i) * 0.1, WallS: 0.1, Host: 1, Done: 10})
	}
	rounds[25].WallS = 1.6
	if got := sliceMedianRate(rounds, 10, 5, true); math.Abs(got-100) > 1e-9 {
		t.Errorf("slice median rate = %.3f, want 100", got)
	}
	// A slice no round started in is left out; a round that started at
	// the very end of the window belongs to the last slice.
	sparse := []round{{StartS: 1, WallS: 2, Host: 1, Done: 1}, {StartS: 10, WallS: 1, Host: 1, Done: 2}}
	if got := sliceMedianRate(sparse, 10, 5, true); got != 1.25 {
		t.Errorf("sparse rate = %v, want 1.25 (median of 0.5 and 2)", got)
	}
	if got := sliceMedianRate(nil, 10, 5, true); got != 0 {
		t.Errorf("rate of no rounds = %v, want 0", got)
	}
}

// A host that runs everything 1.5× slower for part of the window moves the
// figures as measured and leaves the normalised ones where they were.
func TestHostNormalisation(t *testing.T) {
	if f := speedFactor(refChainNominalMs, refGatherNominalMs); f != 1 {
		t.Errorf("speed factor at the nominal timings = %v, want 1", f)
	}
	if f := speedFactor(2*refChainNominalMs, refGatherNominalMs); f != 1.5 {
		t.Errorf("speed factor with the chain kernel twice as slow = %v, want 1.5", f)
	}
	window := func(slowFrom int) *loadResult {
		win := &loadResult{Seconds: 10, LabelsEqual: 1, LabelsTotal: 1}
		for i := 0; i < 100; i++ {
			f := 1.0
			if i >= slowFrom {
				f = 1.5
			}
			win.Rounds = append(win.Rounds, round{StartS: float64(i) * 0.1 * f, WallS: 0.08 * f, Host: f, Done: 2, CPUMs: 70 * f, ComputeNs: int64(30e6 * f)})
			win.LatMs = append(win.LatMs, 40*f, 40*f)
			win.LatRound = append(win.LatRound, i, i)
		}
		win.Counts = phaseCounts{Sent: 200, Succeeded: 200}
		win.Ledger.TransferNs = 200 * 5e6
		return win
	}
	setups := []setupSample{{Seconds: 0.2, Host: 1}, {Seconds: 0.3, Host: 1.5}, {Seconds: 0.2, Host: 1}}
	quiet, _ := endToEndMetrics(window(100), setups[:1], true)
	for _, slowFrom := range []int{0, 30, 70} {
		norm, _ := endToEndMetrics(window(slowFrom), setups, true)
		raw, _ := endToEndMetrics(window(slowFrom), setups, false)
		for _, name := range []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_req", "enclave_modelled_ms_per_req"} {
			if got, want := norm[name].Value, quiet[name].Value; math.Abs(got-want) > 1e-9*want {
				t.Errorf("slow from round %d: normalised %s = %v, want %v", slowFrom, name, got, want)
			}
		}
		if got := raw["latency_p95_ms"].Value; got != 60 {
			t.Errorf("slow from round %d: latency_p95_ms as measured = %v, want 60", slowFrom, got)
		}
	}
	// Only the ledger's compute time is host time: 30 ms of it and 5 ms of
	// modelled transfer per round of two requests.
	if got := quiet["enclave_modelled_ms_per_req"].Value; math.Abs(got-20) > 1e-9 {
		t.Errorf("enclave_modelled_ms_per_req = %v, want 20", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "serve.api", StartNs: 10, EndNs: 90},
		{ID: 3, Parent: 2, Name: "registry.acquire", StartNs: 10, EndNs: 30},
		{ID: 4, Parent: 2, Name: "core.predict", StartNs: 30, EndNs: 80},
		// two overlapping children are covered once
		{ID: 5, Parent: 4, Name: "exec.shard", StartNs: 30, EndNs: 70},
		{ID: 6, Parent: 4, Name: "exec.shard", StartNs: 40, EndNs: 80},
	}
	self, neg := selfTimes(spans)
	want := map[uint64]int64{1: 20, 2: 10, 3: 20, 4: 0, 5: 40, 6: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if neg != 0 {
		t.Errorf("negative = %d, want 0", neg)
	}

	// A replayed child that outlasts its parent clamps the parent's self
	// time at 0 and is counted.
	spans = []span{
		{ID: 1, Name: "request", StartNs: 0, EndNs: 50},
		{ID: 2, Parent: 1, Name: "serve.api", StartNs: 0, EndNs: 80},
	}
	self, neg = selfTimes(spans)
	if self[1] != 0 || self[2] != 80 || neg != 1 {
		t.Errorf("clamped: self = %v, negative = %d; want self[1]=0 self[2]=80 negative=1", self, neg)
	}
}

func TestBuildTreeSelfTimesSumToRequest(t *testing.T) {
	run := replayed{httpNs: 1000, apiNs: 700}
	run.p = probeSample{AcquireNs: 100, PredictNs: 500, BackboneNs: 300, ExpandNs: 40, InduceNs: 30, GatherNs: 20}
	var id uint64
	tr := buildTree(&run, 1, &id, 0, 1)
	self, neg := selfTimes(tr.spans)
	var sum int64
	byName := map[string]int64{}
	for _, s := range tr.spans {
		sum += int64(float64(self[s.ID]) * tr.weight[s.ID])
		byName[s.Name] += self[s.ID]
		if s.Trace != 1 || !s.Replayed {
			t.Errorf("span %+v: want trace 1, replayed", s)
		}
	}
	if neg != 0 || sum != 1000 {
		t.Errorf("self times sum to %d (negative %d), want 1000", sum, neg)
	}
	want := map[string]int64{
		"request": 300, "serve.api": 100, "registry.acquire": 100, "core.predict": 0,
		"core.backbone": 300, "core.ecall": 200,
		// the bench's own extraction sits beside the tree, weight 0
		"probe.subgraph.expand": 40, "probe.subgraph.induce": 30, "probe.subgraph.gather": 20,
	}
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, byName[name], w)
		}
	}
}

func testFixture() *fixture {
	return &fixture{
		DS:     &datasets.Dataset{X: mat.New(500, 4)},
		Models: []*model{{ID: "a/parallel"}, {ID: "a/series"}, {ID: "a/cascaded"}},
	}
}

func TestStreamDeterminism(t *testing.T) {
	fx := testFixture()
	draw := func(w *workload, seed int64, client int) string {
		s := newStream(w, fx, seed, client)
		out := ""
		for i := 0; i < 200; i++ {
			r := s.Next()
			out += fmt.Sprintln(r.Path, r.Vault, r.Nodes)
		}
		return out
	}
	for _, name := range []string{"vault_churn", "node_query"} {
		w := workloadByName(name)
		if draw(w, 7, 0) != draw(w, 7, 0) {
			t.Errorf("%s: same seed gave different request sequences", name)
		}
		if draw(w, 7, 0) == draw(w, 8, 0) {
			t.Errorf("%s: different seeds gave the same request sequence", name)
		}
		if draw(w, 7, 0) == draw(w, 7, 1) {
			t.Errorf("%s: the two clients drew the same request sequence", name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	fx := testFixture()
	s := newStream(workloadByName("vault_churn"), fx, 1, 0)
	for i := 0; i < 30; i++ {
		r := s.Next()
		if want := fx.Models[i%3].ID; r.Vault != want || r.Path != "/predict" || len(r.Nodes) != nodesPerRequest {
			t.Fatalf("request %d = %s %s with %d nodes, want /predict %s with %d", i, r.Path, r.Vault, len(r.Nodes), want, nodesPerRequest)
		}
	}
	s = newStream(workloadByName("node_query"), fx, 1, 0)
	sizes := map[int]bool{}
	for i := 0; i < 200; i++ {
		r := s.Next()
		if r.Path != "/predict_nodes" || len(r.Nodes) < 1 || len(r.Nodes) > 4 {
			t.Fatalf("node request %d = %s with %d seeds", i, r.Path, len(r.Nodes))
		}
		seen := map[int]bool{}
		for _, n := range r.Nodes {
			if n < 0 || n >= 500 || seen[n] {
				t.Fatalf("node request %d has bad or repeated seed %d in %v", i, n, r.Nodes)
			}
			seen[n] = true
		}
		sizes[len(r.Nodes)] = true
	}
	if len(sizes) != 4 {
		t.Errorf("seed counts drawn: %v, want all of 1..4", sizes)
	}
	r := request{Path: "/predict", Vault: "a/series", Nodes: []int{3, 14, 15}}
	if got, want := string(r.body()), `{"vault":"a/series","nodes":[3,14,15]}`; got != want {
		t.Errorf("body = %s, want %s", got, want)
	}
}

func TestAgreement(t *testing.T) {
	ref := []int{0, 1, 2, 0, 1}
	if eq, tot, err := agreement(ref, []int{4, 2, 0}, []int{1, 2, 1}); err != nil || eq != 2 || tot != 3 {
		t.Errorf("agreement on nodes = %d/%d, %v", eq, tot, err)
	}
	if eq, tot, err := agreement(ref, nil, []int{0, 1, 2, 0, 0}); err != nil || eq != 4 || tot != 5 {
		t.Errorf("agreement on all = %d/%d, %v", eq, tot, err)
	}
	if _, _, err := agreement(ref, []int{1, 2}, []int{1}); err == nil {
		t.Error("short reply not refused")
	}
	if _, _, err := agreement(ref, nil, []int{1}); err == nil {
		t.Error("short full reply not refused")
	}
}

func TestCheckNotVacuous(t *testing.T) {
	labels := func(counts ...int) []int {
		var out []int
		for c, k := range counts {
			for i := 0; i < k; i++ {
				out = append(out, c)
			}
		}
		return out
	}
	ok := &model{ID: "ok", Ref: labels(35, 33, 32), RectAcc: 0.74, BackboneAcc: 0.45}
	if err := checkNotVacuous(ok, 3); err != nil {
		t.Errorf("balanced fixture refused: %v", err)
	}
	// The power-law sweeps fixture: everything in one class.
	if err := checkNotVacuous(&model{ID: "collapsed", Ref: labels(100, 0, 0), RectAcc: 0.9, BackboneAcc: 0.2}, 3); err == nil {
		t.Error("one-class fixture accepted")
	}
	if err := checkNotVacuous(&model{ID: "empty-class", Ref: labels(50, 48, 2), RectAcc: 0.9, BackboneAcc: 0.2}, 3); err == nil {
		t.Error("fixture with a near-empty class accepted")
	}
	if err := checkNotVacuous(&model{ID: "no-gain", Ref: labels(35, 33, 32), RectAcc: 0.5, BackboneAcc: 0.45}, 3); err == nil {
		t.Error("rectifier that adds nothing accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name("workload", w.Name)
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		var sum float64
		for _, l := range layers {
			sum += w.Predicted[l]
		}
		if math.Abs(sum-1) > 1e-9 || len(w.Predicted) != len(layers) {
			t.Errorf("workload %s: predicted layer shares sum to %.3f over %d layers", w.Name, sum, len(w.Predicted))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		name("metric", m.Name)
		got := bf.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %s [%s] %s", i, got, m.Name, m.Unit, m.Better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, got.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s [s, lower] end-to-end metric")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, m := range perLayer {
		name("metric", m.Name)
		got := bf.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %s [%s] %s", i, got, m.Name, m.Unit, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric and workload it should move", m.Name)
		}
	}
	if bf.RunSeconds < 10 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// Every metric the program emits comes from the two tables, so the names
// it prints and the names in BENCHMARK.json cannot drift apart; this
// pins the emitting side.
func TestEndToEndMetricsEmitEveryName(t *testing.T) {
	win := loadResult{Seconds: 10, LatMs: []float64{1, 2, 3}, LatRound: []int{0, 0, 0}, LabelsTotal: 3, LabelsEqual: 3}
	win.Rounds = []round{{WallS: 1, Host: 1.1, Done: 3}}
	win.Counts = phaseCounts{Sent: 3, Succeeded: 3}
	got, _ := endToEndMetrics(&win, []setupSample{{Seconds: 0.5, Host: 1.1}}, true)
	if len(got) != len(endToEnd) {
		t.Fatalf("emitted %d end-to-end metrics, table has %d", len(got), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s: emitted %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
		}
	}
}
