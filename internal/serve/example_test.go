package serve_test

import (
	"fmt"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
	"gnnvault/internal/substitute"
)

// ExampleMultiServer deploys one vault, registers it as the only tenant of
// its enclave's registry, and answers label queries through the batched
// worker pool.
func ExampleMultiServer() {
	ds := datasets.Load("cora")
	cfg := core.TrainConfig{Epochs: 3, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := core.SpecForDataset("cora")
	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := core.TrainRectifier(ds, bb, core.Parallel, cfg)
	vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		panic(err)
	}

	reg := registry.New(vault.Enclave, registry.Config{})
	defer reg.Close()
	if err := reg.Register("cora/parallel", vault); err != nil {
		panic(err)
	}
	srv := serve.NewMulti(reg, serve.Config{Workers: 2})
	defer srv.Close()

	labels, err := srv.Predict("cora/parallel", ds.X)
	if err != nil {
		panic(err)
	}
	st := srv.Stats()
	fmt.Println("one label per node:", len(labels) == vault.Nodes())
	fmt.Printf("completed=%d errors=%d\n", st.Completed, st.Errors)
	// Output:
	// one label per node: true
	// completed=1 errors=0
}
