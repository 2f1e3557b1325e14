package core

import (
	"testing"

	"gnnvault/internal/obs"
	"gnnvault/internal/subgraph"
)

// TestPredictIntoAllocFreeInstrumented pins the full-graph hot path at
// zero allocations per query with a LIVE span recorder attached — not the
// no-op default — so turning the flight recorder on in production cannot
// reintroduce per-query garbage.
func TestPredictIntoAllocFreeInstrumented(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	ring := obs.NewRing(1024)
	ws, err := v.PlanWith(ds.X.Rows, PlanConfig{Workers: 1, Recorder: ring})
	if err != nil {
		t.Fatalf("PlanWith: %v", err)
	}
	defer ws.Release()
	if _, _, err := v.PredictInto(ds.X, ws); err != nil { // warm-up
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := v.PredictInto(ds.X, ws); err != nil {
			t.Fatalf("PredictInto: %v", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("instrumented PredictInto allocates %.1f objects/op, want 0", allocs)
	}
	if ring.Len() == 0 {
		t.Fatalf("live recorder captured no spans")
	}
	var queries, ops int
	for _, s := range ring.Last(0) {
		switch s.Kind {
		case obs.SpanQuery:
			queries++
		case obs.SpanOp:
			ops++
		}
	}
	if queries == 0 || ops == 0 {
		t.Fatalf("expected query and op spans in the ring, got %d queries / %d ops", queries, ops)
	}

	// Registered features: after the one publishing pass, a pass reads the
	// public-half store — still 0 allocs/op, and its trace says so: a
	// backbone stage of zero rows computed, as long as the breakdown says,
	// with no op beneath it.
	if err := v.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.PredictInto(ds.X, ws); err != nil { // publishes
		t.Fatalf("publishing pass: %v", err)
	}
	var bd InferenceBreakdown
	allocs = testing.AllocsPerRun(10, func() {
		if _, bd, err = v.PredictInto(ds.X, ws); err != nil {
			t.Fatalf("PredictInto: %v", err)
		}
	})
	if allocs > 0 || !bd.BackboneReused {
		t.Fatalf("registered-features pass: %.1f allocs/op, reused %v; want 0 and true", allocs, bd.BackboneReused)
	}
	spans := ring.Last(0)
	var stage obs.Span
	for _, s := range spans {
		if s.Kind == obs.SpanBackbone {
			stage = s // the last pass's
		}
	}
	if stage.Rows != 0 || stage.Dur != int64(bd.BackboneTime) {
		t.Fatalf("reused backbone stage %+v, want Rows 0 and Dur %d", stage, bd.BackboneTime)
	}
	for _, s := range spans {
		if s.Kind == obs.SpanOp && s.Parent == stage.ID {
			t.Fatalf("op span %+v under a reused backbone stage", s)
		}
	}
}

// TestPredictNodesIntoAllocFreeInstrumented is the node-query twin: the
// subgraph hot path stays allocation-free with span recording on.
func TestPredictNodesIntoAllocFreeInstrumented(t *testing.T) {
	ds := pathDataset(300)
	v := deploySubgraphExact(t, ds, Parallel)
	defer v.Undeploy()
	ring := obs.NewRing(1024)
	ws, err := v.PlanSubgraphWith(2, subgraph.Config{Hops: 2, Fanout: 4, Seed: 1}, PlanConfig{Recorder: ring})
	if err != nil {
		t.Fatalf("PlanSubgraphWith: %v", err)
	}
	defer ws.Release()
	seeds := []int{40, 200}
	if _, _, err := v.PredictNodesInto(ds.X, seeds, ws); err != nil { // warm-up
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(30, func() {
		if _, _, err := v.PredictNodesInto(ds.X, seeds, ws); err != nil {
			t.Fatalf("PredictNodesInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented node query allocates %.1f per run, want 0", allocs)
	}
	var nodeQueries, ecalls int
	for _, s := range ring.Last(0) {
		switch s.Kind {
		case obs.SpanNodeQuery:
			nodeQueries++
		case obs.SpanECall:
			ecalls++
		}
	}
	if nodeQueries == 0 || ecalls == 0 {
		t.Fatalf("expected node_query and ecall spans, got %d / %d", nodeQueries, ecalls)
	}
}

// TestInstrumentedOutputsBitIdentical checks a live recorder changes
// nothing about the answers: labels from instrumented and uninstrumented
// workspaces of the same vault must match exactly.
func TestInstrumentedOutputsBitIdentical(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	wsPlain, err := v.PlanWith(ds.X.Rows, PlanConfig{Workers: 1})
	if err != nil {
		t.Fatalf("PlanWith: %v", err)
	}
	defer wsPlain.Release()
	wsObs, err := v.PlanWith(ds.X.Rows, PlanConfig{Workers: 1, Recorder: obs.NewRing(1024)})
	if err != nil {
		t.Fatalf("PlanWith instrumented: %v", err)
	}
	defer wsObs.Release()
	want, _, err := v.PredictInto(ds.X, wsPlain)
	if err != nil {
		t.Fatalf("PredictInto: %v", err)
	}
	got, _, err := v.PredictInto(ds.X, wsObs)
	if err != nil {
		t.Fatalf("instrumented PredictInto: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label %d differs under instrumentation: %d vs %d", i, got[i], want[i])
		}
	}
}
