package core

import (
	"context"
	"testing"

	"gnnvault/internal/subgraph"
)

// TestPredictScoresIntoMatchesLabels pins the full-graph scores surface
// (Workspace.PredictContext with wantScores) to the label surface: the score rows' argmax must reproduce PredictInto's
// labels exactly, the row width must be the class count, and exposing
// scores must charge a larger ECALL result payload than labels alone.
func TestPredictScoresIntoMatchesLabels(t *testing.T) {
	ds, v := planTestVault(t, Parallel)
	n := ds.Graph.N()
	ws, err := v.Plan(n)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	defer ws.Release()

	labels, _, err := v.PredictInto(ds.X, ws)
	if err != nil {
		t.Fatalf("PredictInto: %v", err)
	}
	want := append([]int{}, labels...)

	got, scores, bd, err := ws.PredictContext(context.Background(), ds.X, true)
	if err != nil {
		t.Fatalf("PredictContext: %v", err)
	}
	if scores.Rows != n || scores.Cols != v.classes() {
		t.Fatalf("scores shape %dx%d, want %dx%d", scores.Rows, scores.Cols, n, v.classes())
	}
	if bd.ECalls != 1 {
		t.Fatalf("scores pass used %d ECALLs, want 1", bd.ECalls)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
		}
		row := scores.Row(i)
		top := 0
		for k := range row {
			if row[k] > row[top] {
				top = k
			}
		}
		if top != want[i] {
			t.Fatalf("argmax(scores[%d]) = %d, label %d", i, top, want[i])
		}
	}
}

// TestPredictScoresAllocating covers the allocating Vault path that
// serve's full-graph fallback uses.
func TestPredictScoresAllocating(t *testing.T) {
	ds, v := planTestVault(t, Series)
	labels, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	got, scores, _, err := v.predict(ds.X, true)
	if err != nil {
		t.Fatalf("predict(scores): %v", err)
	}
	if scores.Rows != ds.Graph.N() || scores.Cols != v.classes() {
		t.Fatalf("scores shape %dx%d", scores.Rows, scores.Cols)
	}
	for i, w := range labels {
		if got[i] != w {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], w)
		}
	}
}

// TestPredictNodesScoresIntoMatchesLabels checks the subgraph scores
// path (PredictNodesIntoContext with wantScores): per-seed score rows whose argmax equals the node-query labels,
// on both the extracted path and the full-graph fallback.
func TestPredictNodesScoresIntoMatchesLabels(t *testing.T) {
	ds := pathDataset(240)
	v := deploySubgraphExact(t, ds, Parallel)
	defer v.Undeploy()
	ws, err := v.PlanSubgraph(3, subgraph.Config{Hops: 6})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()

	seeds := []int{120, 7, 231}
	want, _, err := v.PredictNodesInto(ds.X, seeds, ws)
	if err != nil {
		t.Fatalf("PredictNodesInto: %v", err)
	}
	wantCopy := append([]int{}, want...)
	got, scores, _, err := v.PredictNodesIntoContext(context.Background(), ds.X, seeds, ws, true)
	if err != nil {
		t.Fatalf("PredictNodesIntoContext: %v", err)
	}
	if scores.Rows != len(seeds) || scores.Cols != v.classes() {
		t.Fatalf("scores shape %dx%d, want %dx%d", scores.Rows, scores.Cols, len(seeds), v.classes())
	}
	for i := range seeds {
		if got[i] != wantCopy[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got[i], wantCopy[i])
		}
		row := scores.Row(i)
		top := 0
		for k := range row {
			if row[k] > row[top] {
				top = k
			}
		}
		if top != wantCopy[i] {
			t.Fatalf("argmax(scores[%d]) = %d, label %d", i, top, wantCopy[i])
		}
	}

	// Hops deep enough to cover the whole path graph trip the fallback;
	// the scores must then be gathered from the full-graph pass.
	wsAll, err := v.PlanSubgraph(3, subgraph.Config{Hops: 300})
	if err != nil {
		t.Fatalf("PlanSubgraph(fallback): %v", err)
	}
	defer wsAll.Release()
	fbLabels, fbScores, _, err := v.PredictNodesIntoContext(context.Background(), ds.X, seeds, wsAll, true)
	if err != nil {
		t.Fatalf("fallback PredictNodesIntoContext: %v", err)
	}
	full, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for i, s := range seeds {
		if fbLabels[i] != full[s] {
			t.Fatalf("fallback label[%d] = %d, want %d", i, fbLabels[i], full[s])
		}
		row := fbScores.Row(i)
		top := 0
		for k := range row {
			if row[k] > row[top] {
				top = k
			}
		}
		if top != full[s] {
			t.Fatalf("fallback argmax(scores[%d]) = %d, label %d", i, top, full[s])
		}
	}
}

// classes returns the deployed rectifier's output dimension — the label
// space every served prediction reduces to.
func (v *Vault) classes() int { return v.rectifier.Dims[len(v.rectifier.Dims)-1] }
