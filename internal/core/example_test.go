package core_test

import (
	"fmt"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

// Example walks the full GNNVault lifecycle: train the public backbone on
// a substitute graph, train the private rectifier on the real adjacency,
// deploy both into a simulated enclave, plan an allocation-free inference
// workspace, and answer a label-only query.
func Example() {
	ds := datasets.Load("cora")
	cfg := core.TrainConfig{Epochs: 3, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := core.SpecForDataset("cora")

	// Step 1-2: public backbone over a KNN substitute graph (it never sees
	// the real adjacency), then the enclave-resident rectifier over the
	// private graph with the backbone frozen.
	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := core.TrainRectifier(ds, bb, core.Parallel, cfg)

	// Step 3: deploy — seal rectifier parameters and the private adjacency
	// into the enclave and charge its EPC for the persistent residents.
	vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		panic(err)
	}

	// Step 4: plan once, predict many. The workspace charges the EPC for
	// the inference working set up front; PredictInto then reuses it with
	// zero steady-state heap allocation.
	ws, err := vault.Plan(vault.Nodes())
	if err != nil {
		panic(err)
	}
	defer ws.Release()
	labels, bd, err := vault.PredictInto(ds.X, ws)
	if err != nil {
		panic(err)
	}

	fmt.Println("design:", vault.Design())
	fmt.Println("one label per node:", len(labels) == vault.Nodes())
	fmt.Println("labels in class range:", inClassRange(labels, ds.NumClasses))
	fmt.Println("enclave charged:", vault.Enclave.EPCUsed() > 0)
	fmt.Println("one ECALL per query:", bd.ECalls == 1)
	// Output:
	// design: parallel
	// one label per node: true
	// labels in class range: true
	// enclave charged: true
	// one ECALL per query: true
}

// ExampleVault_PredictNodesInto answers node-level queries through the
// subgraph engine: the seeds' L-hop neighbourhood is expanded over the
// public substitute graph, the private adjacency is induced over that
// set inside the enclave, and only the seeds' labels come back —
// per-query cost is O(hops × fanout), not O(graph).
func ExampleVault_PredictNodesInto() {
	ds := datasets.Load("cora")
	cfg := core.TrainConfig{Epochs: 3, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := core.SpecForDataset("cora")
	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := core.TrainRectifier(ds, bb, core.Parallel, cfg)
	vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		panic(err)
	}

	// Plan once for batches of up to 4 seeds: every buffer — and the
	// enclave EPC — is sized from (hops, fanout, seeds) up front.
	ws, err := vault.PlanSubgraph(4, subgraph.Config{Hops: 2, Fanout: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer ws.Release()

	seeds := []int{17, 42, 311}
	labels, bd, err := vault.PredictNodesInto(ds.X, seeds, ws)
	if err != nil {
		panic(err)
	}

	fmt.Println("one label per seed:", len(labels) == len(seeds))
	fmt.Println("labels in class range:", inClassRange(labels, ds.NumClasses))
	fmt.Println("subgraph smaller than graph:", ws.LastExtracted() < vault.Nodes())
	fmt.Println("answered in one ECALL:", bd.ECalls == 1)
	// Output:
	// one label per seed: true
	// labels in class range: true
	// subgraph smaller than graph: true
	// answered in one ECALL: true
}

// inClassRange reports whether every label is a class index in
// [0, classes): the vault answers labels, never logits.
func inClassRange(labels []int, classes int) bool {
	for _, l := range labels {
		if l < 0 || l >= classes {
			return false
		}
	}
	return true
}
