package core

import (
	"errors"
	"math/rand"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/nn"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

// pathDataset builds a dataset over a path graph 0—1—…—n-1: the sparsest
// connected topology, where L-hop neighbourhoods stay tiny and the
// subgraph engine's exactness can be checked against the full-graph pass.
func pathDataset(n int) *datasets.Dataset {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	g := graph.New(n, edges)
	rng := rand.New(rand.NewSource(11))
	labels := make([]int, n)
	var train, test []int
	for i := range labels {
		labels[i] = rng.Intn(4)
		if i%5 == 0 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	return &datasets.Dataset{
		Name:       "path",
		X:          mat.RandUniform(rng, n, 12, 0, 1),
		Graph:      g,
		Labels:     labels,
		NumClasses: 4,
		TrainMask:  train,
		TestMask:   test,
	}
}

// deploySubgraphExact trains a vault whose backbone uses the *private*
// graph as its substitute, so the public expansion covers the private
// receptive field too and exactness is decidable.
func deploySubgraphExact(t *testing.T, ds *datasets.Dataset, design RectifierDesign) *Vault {
	t.Helper()
	train := TrainConfig{Epochs: 5, LR: 0.02, WeightDecay: 5e-4, Seed: 7}
	spec := tinySpec()
	bb := TrainBackbone(ds, spec, substitute.KindKNN, ds.Graph, train)
	rec := TrainRectifier(ds, bb, design, train)
	v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return v
}

func TestPredictNodesIntoExactOnPathGraph(t *testing.T) {
	ds := pathDataset(240)
	for _, design := range Designs {
		v := deploySubgraphExact(t, ds, design)
		full, _, err := v.Predict(ds.X)
		if err != nil {
			t.Fatalf("%s: Predict: %v", design, err)
		}
		// tinySpec has 3 backbone convs + 3 rectifier convs: a 6-hop
		// receptive field. On a path graph that is ≤13 nodes per seed.
		ws, err := v.PlanSubgraph(3, subgraph.Config{Hops: 6})
		if err != nil {
			t.Fatalf("%s: PlanSubgraph: %v", design, err)
		}
		seeds := []int{120, 7, 231}
		got, bd, err := v.PredictNodesInto(ds.X, seeds, ws)
		if err != nil {
			t.Fatalf("%s: PredictNodesInto: %v", design, err)
		}
		for i, s := range seeds {
			if got[i] != full[s] {
				t.Errorf("%s: seed %d: subgraph label %d != full-graph label %d", design, s, got[i], full[s])
			}
		}
		if ws.LastExtracted() >= ds.Graph.N()*3/4 {
			t.Fatalf("%s: extraction covered %d nodes; exactness test degenerated to fallback", design, ws.LastExtracted())
		}
		if bd.ECalls != 1 {
			t.Errorf("%s: subgraph query used %d ECALLs, want 1", design, bd.ECalls)
		}
		ws.Release()
		v.Undeploy()
	}
}

func TestPredictNodesIntoSampledAgreement(t *testing.T) {
	ds := tinyDataset()
	v := deploySubgraphExact(t, ds, Parallel)
	defer v.Undeploy()
	full, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	ws, err := v.PlanSubgraph(4, subgraph.Config{Hops: 2, Fanout: 6, Seed: 3})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()

	agree, total := 0, 0
	for s := 0; s < ds.Graph.N(); s += 7 {
		got, _, err := v.PredictNodesInto(ds.X, []int{s}, ws)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if got[0] < 0 || got[0] >= ds.NumClasses {
			t.Fatalf("seed %d: label %d outside class space", s, got[0])
		}
		if got[0] == full[s] {
			agree++
		}
		total++
	}
	// Sampled 2-hop inference is approximate; on a homophilous tiny graph
	// it must still agree with the exact pass most of the time.
	if frac := float64(agree) / float64(total); frac < 0.5 {
		t.Fatalf("sampled agreement %.2f < 0.5 (%d/%d)", frac, agree, total)
	}
}

func TestPredictNodesIntoDeterministic(t *testing.T) {
	ds := tinyDataset()
	v := deploySubgraphExact(t, ds, Series)
	defer v.Undeploy()
	ws, err := v.PlanSubgraph(2, subgraph.Config{Hops: 2, Fanout: 3, Seed: 9})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	a, _, err := v.PredictNodesInto(ds.X, []int{5, 50}, ws)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int{}, a...)
	// Interleave an unrelated query, then repeat: same seeds, same answer.
	if _, _, err := v.PredictNodesInto(ds.X, []int{99}, ws); err != nil {
		t.Fatal(err)
	}
	b, _, err := v.PredictNodesInto(ds.X, []int{5, 50}, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != b[i] {
			t.Fatalf("query not deterministic: %v then %v", first, b)
		}
	}
}

func TestPredictNodesIntoAllocFree(t *testing.T) {
	ds := pathDataset(300)
	v := deploySubgraphExact(t, ds, Parallel)
	defer v.Undeploy()
	ws, err := v.PlanSubgraph(2, subgraph.Config{Hops: 2, Fanout: 4, Seed: 1})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	seeds := []int{40, 200}
	allocs := testing.AllocsPerRun(30, func() {
		if _, _, err := v.PredictNodesInto(ds.X, seeds, ws); err != nil {
			t.Fatalf("PredictNodesInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot subgraph query allocates %.1f per run, want 0", allocs)
	}
}

func TestPredictNodesIntoFallbackWhenFrontierCoversGraph(t *testing.T) {
	ds := tinyDataset() // dense enough that a deep unlimited expansion covers it
	v := deploySubgraphExact(t, ds, Series)
	defer v.Undeploy()
	// Exact labels from the reference forward, not from the engine the
	// fallback runs.
	embs := selectEmbeddings(v.Backbone.Embeddings(ds.X), v.rectifier.RequiredEmbeddings())
	full := v.rectifier.Forward(embs, false).ArgmaxRows()
	ws, err := v.PlanSubgraph(2, subgraph.Config{Hops: 8})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	seeds := []int{0, 60}
	epc := v.Enclave.EPCUsed()
	got, bd, err := v.PredictNodesInto(ds.X, seeds, ws)
	if err != nil {
		t.Fatalf("PredictNodesInto: %v", err)
	}
	if bd.ECalls != 1 {
		t.Fatalf("fallback issued %d ECALLs, want the one full-graph pass", bd.ECalls)
	}
	if used := v.Enclave.EPCUsed(); used != epc {
		t.Fatalf("fallback left %d B of EPC in use, found %d B", used, epc)
	}
	for i, s := range seeds {
		if got[i] != full[s] {
			t.Fatalf("fallback path differs from exact labels at seed %d", s)
		}
	}
}

func TestPredictNodesIntoErrors(t *testing.T) {
	ds := pathDataset(100)
	v := deploySubgraphExact(t, ds, Series)
	defer v.Undeploy()
	ws, err := v.PlanSubgraph(2, subgraph.Config{Hops: 2, Fanout: 4})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	if _, _, err := v.PredictNodesInto(ds.X, []int{100}, ws); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out of range: err = %v, want ErrNodeOutOfRange", err)
	}
	if _, _, err := v.PredictNodesInto(ds.X, []int{-1}, ws); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("negative: err = %v, want ErrNodeOutOfRange", err)
	}
	if _, _, err := v.PredictNodesInto(ds.X, []int{1, 2, 3}, ws); !errors.Is(err, subgraph.ErrTooManySeeds) {
		t.Fatalf("over cap: err = %v, want subgraph.ErrTooManySeeds", err)
	}
	ws.Release()
	if _, _, err := v.PredictNodesInto(ds.X, []int{1}, ws); err == nil {
		t.Fatal("released workspace accepted a query")
	}
}

func TestPlanSubgraphEPCAccounting(t *testing.T) {
	ds := pathDataset(1500)
	v := deploySubgraphExact(t, ds, Parallel)
	defer v.Undeploy()
	base := v.Enclave.EPCUsed()

	fullWS, err := v.Plan(v.Nodes())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	subWS, err := v.PlanSubgraph(4, subgraph.Config{Hops: 2, Fanout: 4})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	if subWS.EnclaveBytes() <= 0 {
		t.Fatal("subgraph plan charged no EPC")
	}
	// The point of the engine: the capped working set is far below the
	// full-graph plan on the same vault.
	if subWS.EnclaveBytes()*2 >= fullWS.EnclaveBytes() {
		t.Fatalf("subgraph plan %d B not clearly smaller than full plan %d B",
			subWS.EnclaveBytes(), fullWS.EnclaveBytes())
	}
	if got := v.Enclave.EPCUsed(); got != base+fullWS.EnclaveBytes()+subWS.EnclaveBytes() {
		t.Fatalf("EPC used %d, want %d", got, base+fullWS.EnclaveBytes()+subWS.EnclaveBytes())
	}
	subWS.Release()
	subWS.Release() // idempotent
	fullWS.Release()
	if got := v.Enclave.EPCUsed(); got != base {
		t.Fatalf("EPC not returned: %d, want %d", got, base)
	}
}

func TestPlanSubgraphUnsupported(t *testing.T) {
	ds := tinyDataset()
	train := fastTrain()
	// DNN backbone: no public graph to expand over.
	bbDNN := TrainBackbone(ds, tinySpec(), substitute.KindDNN, nil, train)
	recDNN := TrainRectifier(ds, bbDNN, Series, train)
	vDNN, err := Deploy(bbDNN, recDNN, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Deploy DNN: %v", err)
	}
	defer vDNN.Undeploy()
	if _, err := vDNN.PlanSubgraph(2, subgraph.Config{Hops: 2}); !errors.Is(err, ErrSubgraphUnsupported) {
		t.Fatalf("DNN backbone: err = %v, want ErrSubgraphUnsupported", err)
	}

	// SAGE convolutions: kernels bound to their full-graph operator.
	spec := tinySpec()
	spec.Conv = ConvSAGE
	bbSAGE := TrainBackbone(ds, spec, substitute.KindKNN, ds.Graph, train)
	recSAGE := TrainRectifier(ds, bbSAGE, Series, train)
	vSAGE, err := Deploy(bbSAGE, recSAGE, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Deploy SAGE: %v", err)
	}
	defer vSAGE.Undeploy()
	if _, err := vSAGE.PlanSubgraph(2, subgraph.Config{Hops: 2}); !errors.Is(err, ErrSubgraphUnsupported) {
		t.Fatalf("SAGE: err = %v, want ErrSubgraphUnsupported", err)
	}
}

// TestSubgraphWorkspaceReuseAcrossBatchSizes exercises the view-rows
// machinery: growing and shrinking extraction sizes must reuse the same
// backing buffers correctly.
func TestSubgraphWorkspaceReuseAcrossBatchSizes(t *testing.T) {
	ds := pathDataset(300)
	v := deploySubgraphExact(t, ds, Cascaded)
	defer v.Undeploy()
	full, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := v.PlanSubgraph(4, subgraph.Config{Hops: 6})
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	for _, seeds := range [][]int{{150}, {20, 80, 140, 260}, {299}, {10, 250}} {
		got, _, err := v.PredictNodesInto(ds.X, seeds, ws)
		if err != nil {
			t.Fatalf("seeds %v: %v", seeds, err)
		}
		for i, s := range seeds {
			if got[i] != full[s] {
				t.Fatalf("seeds %v: label[%d]=%d, want %d", seeds, i, got[i], full[s])
			}
		}
	}
}

// Silence unused-import lint in builds where nn is only used by type
// switches (it is also referenced here to assert the supported layer set
// stays in sync with PlanSubgraph's gating).
var _ nn.Layer = (*nn.GCNConv)(nil)
