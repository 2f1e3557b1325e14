package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/substitute"
)

// lookalikeGraph returns a random graph with g's node and edge counts:
// everything a deployment over it shares with one over g is public.
func lookalikeGraph(g *graph.Graph, seed int64) *graph.Graph {
	return graph.Random(g.N(), g.NumUndirectedEdges(), seed)
}

// TestDeployComputesOverTheGivenGraph: a vault computes over the private
// graph it is deployed with, not the one its rectifier was trained over.
// For every conv kind × design, a vault deployed over a lookalike graph G′
// gives the labels, and at fp64 the logits to 1e-9, of the reference
// forward of a rectifier built over G′ with the same parameters; and
// Export → Import of that vault answers label for label as it does.
func TestDeployComputesOverTheGivenGraph(t *testing.T) {
	for _, conv := range ConvKinds {
		for _, design := range Designs {
			t.Run(fmt.Sprintf("%s/%s", conv, design), func(t *testing.T) {
				ds, trained := convTestVault(t, conv, design, 5)
				trained.Undeploy()
				bb, rec := trained.Backbone, trained.rectifier
				gp := lookalikeGraph(ds.Graph, 7)
				v, err := Deploy(bb, rec, gp, enclave.DefaultCostModel())
				if err != nil {
					t.Fatalf("Deploy over G′: %v", err)
				}
				defer v.Undeploy()

				ref := NewRectifierConv(rand.New(rand.NewSource(0)), design, conv, bb.BlockDims, rec.Dims[:len(rec.Dims)-1], v.classes(), gp)
				if err := ref.UnmarshalParams(rec.MarshalParams()); err != nil {
					t.Fatal(err)
				}
				want := ref.Forward(selectEmbeddings(bb.Embeddings(ds.X), rec.RequiredEmbeddings()), false)
				labels, logits, _, err := v.predict(ds.X, true)
				if err != nil {
					t.Fatalf("Predict: %v", err)
				}
				if !logits.EqualApprox(want, 1e-9) {
					t.Fatal("the vault's logits are not the reference forward's over G′")
				}
				requireLabels(t, "deployed over G′ vs reference over G′", labels, want.ArgmaxRows())

				data, err := v.Export("cora")
				if err != nil {
					t.Fatalf("Export: %v", err)
				}
				imported, err := Import(data, enclave.DefaultCostModel())
				if err != nil {
					t.Fatalf("Import: %v", err)
				}
				defer imported.Undeploy()
				got, _, err := imported.Predict(ds.X)
				if err != nil {
					t.Fatalf("imported Predict: %v", err)
				}
				requireLabels(t, "Export → Import vs Deploy", got, labels)
			})
		}
	}
}

// TestDeployRefusesMismatchedGraph: a private graph whose node count is
// not the backbone graph's is refused by every deployment entry point with
// an error — before it is admitted, so nothing stays charged — instead of
// deploying and panicking at the first pass. Deploy and DeploySharded
// create their enclaves themselves; DeployInto is handed one already
// holding another tenant's bytes, which it must leave as it found them.
func TestDeployRefusesMismatchedGraph(t *testing.T) {
	v, _, ds := deployTiny(t, Parallel)
	short := graph.Random(ds.Graph.N()-10, ds.Graph.NumUndirectedEdges(), 3)
	cm := enclave.DefaultCostModel()
	encl := enclave.New(cm, v.rectifier.Identity())
	if err := encl.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		deploy func() error
	}{
		{"Deploy", func() error { _, err := Deploy(v.Backbone, v.rectifier, short, cm); return err }},
		{"DeployInto", func() error { _, err := DeployInto(encl, v.Backbone, v.rectifier, short); return err }},
		{"DeploySharded", func() error { _, err := DeploySharded(v.Backbone, v.rectifier, short, cm, 2); return err }},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.deploy(); err == nil {
				t.Fatalf("%d-node private graph under a %d-node backbone deployed", short.N(), ds.Graph.N())
			}
			if used := encl.EPCUsed(); used != 4096 {
				t.Fatalf("shared enclave holds %d B after the refusal, want 4096", used)
			}
		})
	}
}

// publicShape names, in one place, every quantity a single-enclave
// vault's boundary trace may depend on: the node count, the private
// operator's non-zeros, the design and the model's widths. Two
// deployments that agree on it must be indistinguishable at the boundary.
type publicShape struct {
	n, nnz int
	design RectifierDesign
	widths string
}

func shapeOf(v *Vault) publicShape {
	r := v.rectifier
	return publicShape{v.op.N, v.op.NNZ(), r.Design, fmt.Sprint(v.Backbone.FeatureDim, r.BackboneDims, r.Dims)}
}

// boundaryTrace is what the host sees of a plan and its passes: the
// ledger's boundary counts of each pass, the EPC the plan charged, the
// traffic it spills and the peak EPC of its passes.
type boundaryTrace struct {
	passes                        [4]passLedger
	enclaveBytes, spill, peakEPCB int64
}

// passLedger is the ledger's boundary counts over one pass.
type passLedger struct {
	ecalls, ocalls               int
	bytesIn, bytesOut, pageSwaps int64
}

// TestBoundaryTraceIsPublic: one set of weights deployed over cora's
// graph and over a lookalike with the same node and edge counts leaves
// the same boundary trace, pass by pass, on every single-enclave plan —
// fp64 and int8, direct and tiled, and node queries. A full-graph cell
// answers the caller's own features, then the registered ones three
// times: the last pass reads the store record the one before bound, so a
// direct plan's enclave holds its payload and bills none of it.
//
// The int8-refusal row holds two lookalikes the default floor refuses at
// different agreements to the same error text.
//
// Two known gaps stay outside the table. Fleet plans: their halo bytes and
// rows per shard follow the private partition. And the int8 gate: whether
// the default agreement floor admits a plan is measured over the private
// graph (here cora's clears 0.99, the lookalike's does not), so the int8
// cells plan under a floor both clear and hold the trace of an admitted
// plan to be public.
func TestBoundaryTraceIsPublic(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	var vaults [2]*Vault
	for i, g := range []*graph.Graph{ds.Graph, lookalikeGraph(ds.Graph, 11)} {
		v, err := Deploy(bb, rec, g, enclave.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		defer v.Undeploy()
		if err := v.SetCalibrationFeatures(ds.X); err != nil {
			t.Fatal(err)
		}
		vaults[i] = v
	}
	if a, b := shapeOf(vaults[0]), shapeOf(vaults[1]); a != b {
		t.Fatalf("public shapes differ: %+v vs %+v", a, b)
	}
	ownX := ds.X.Clone()

	full := func(cfg PlanConfig) func(*testing.T, *Vault) boundaryTrace {
		return func(t *testing.T, v *Vault) boundaryTrace {
			ws, err := v.PlanWith(v.Nodes(), cfg)
			if err != nil {
				t.Fatalf("PlanWith: %v", err)
			}
			defer ws.Release()
			tr := boundaryTrace{enclaveBytes: ws.EnclaveBytes(), spill: ws.SpillBytes()}
			for i, x := range []*mat.Matrix{ownX, ds.X, ds.X, ds.X} {
				before := v.Enclave.Ledger()
				_, bd, err := v.PredictInto(x, ws)
				if err != nil {
					t.Fatal(err)
				}
				tr.passes[i] = ledgerDelta(before, v.Enclave.Ledger())
				tr.peakEPCB = max(tr.peakEPCB, bd.PeakEPCBytes)
			}
			if held := tr.passes[3].bytesIn; ws.TileRows() == 0 && held != 0 {
				t.Fatalf("a direct plan's held pass billed %d B in", held)
			}
			return tr
		}
	}
	nodeQuery := func(t *testing.T, v *Vault) boundaryTrace {
		ws, err := v.PlanSubgraph(4, subConfigForTest())
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Release()
		tr := boundaryTrace{enclaveBytes: ws.EnclaveBytes()}
		for i, seeds := range [][]int{{0}, {5, 17}, {42, 99, 311, 5}} {
			before := v.Enclave.Ledger()
			_, bd, err := v.PredictNodesInto(ds.X, seeds, ws)
			if err != nil {
				t.Fatal(err)
			}
			tr.passes[i] = ledgerDelta(before, v.Enclave.Ledger())
			tr.peakEPCB = max(tr.peakEPCB, bd.PeakEPCBytes)
		}
		return tr
	}
	for _, cell := range []struct {
		name  string
		trace func(*testing.T, *Vault) boundaryTrace
	}{
		{"fp64", full(PlanConfig{})},
		{"tiled", full(PlanConfig{TileRows: 97})},
		{"int8", full(PlanConfig{Precision: PrecisionInt8, MinAgreement: 0.5})},
		{"int8-tiled", full(PlanConfig{Precision: PrecisionInt8, TileRows: 97, MinAgreement: 0.5})},
		{"node-query", nodeQuery},
	} {
		t.Run(cell.name, func(t *testing.T) {
			a, b := cell.trace(t, vaults[0]), cell.trace(t, vaults[1])
			if a != b {
				t.Fatalf("the trace follows the private graph:\ncora      %+v\nlookalike %+v", a, b)
			}
		})
	}
	// The default floor refuses an int8 plan over both lookalikes, at
	// agreements of 0.9667 and 0.9850: the refusal the host reads must
	// not say which.
	t.Run("int8-refusal", func(t *testing.T) {
		other, err := Deploy(bb, rec, lookalikeGraph(ds.Graph, 12), enclave.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		defer other.Undeploy()
		if err := other.SetCalibrationFeatures(ds.X); err != nil {
			t.Fatal(err)
		}
		var texts [2]string
		for i, v := range []*Vault{vaults[1], other} {
			_, err := v.PlanWith(v.Nodes(), PlanConfig{Precision: PrecisionInt8})
			if !errors.Is(err, ErrCalibrationFailed) {
				t.Fatalf("lookalike %d: PlanWith = %v, want ErrCalibrationFailed", i, err)
			}
			texts[i] = err.Error()
		}
		if texts[0] != texts[1] {
			t.Fatalf("the refusal follows the private graph:\n%s\n%s", texts[0], texts[1])
		}
	})
}

// ledgerDelta returns the boundary counts between two ledger readings.
func ledgerDelta(before, after enclave.Ledger) passLedger {
	return passLedger{
		ecalls:    after.ECalls - before.ECalls,
		ocalls:    after.OCalls - before.OCalls,
		bytesIn:   after.BytesIn - before.BytesIn,
		bytesOut:  after.BytesOut - before.BytesOut,
		pageSwaps: after.PageSwaps - before.PageSwaps,
	}
}

// FuzzDeployGraph: over a fuzzed private graph — node count off the
// backbone's by a fuzzed delta, fuzzed edge count and seed — Deploy then
// Predict answers label for label as Export → Import then Predict of the
// same vault, and a node count that is not the backbone's is an error,
// never a panic.
func FuzzDeployGraph(f *testing.F) {
	ds := datasets.Load("cora")
	cfg := TrainConfig{Epochs: 3, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	bb := TrainBackbone(ds, SpecForDataset("cora"), substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := TrainRectifier(ds, bb, Parallel, cfg)
	n := ds.Graph.N()
	f.Add(int8(0), uint16(ds.Graph.NumUndirectedEdges()), int64(1))
	f.Add(int8(0), uint16(0), int64(2))
	f.Add(int8(-1), uint16(1000), int64(3))
	f.Add(int8(1), uint16(40000), int64(4))
	f.Fuzz(func(t *testing.T, deltaRaw int8, edges uint16, seed int64) {
		delta := int(deltaRaw) % 3 // a third of the inputs match n
		g := graph.Random(n+delta, int(edges), seed)
		v, err := Deploy(bb, rec, g, enclave.DefaultCostModel())
		if delta != 0 {
			if err == nil {
				t.Fatalf("%d-node private graph under a %d-node backbone deployed", g.N(), n)
			}
			return
		}
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		defer v.Undeploy()
		want, _, err := v.Predict(ds.X)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		data, err := v.Export("cora")
		if err != nil {
			t.Fatalf("Export: %v", err)
		}
		imported, err := Import(data, enclave.DefaultCostModel())
		if err != nil {
			t.Fatalf("Import: %v", err)
		}
		defer imported.Undeploy()
		got, _, err := imported.Predict(ds.X)
		if err != nil {
			t.Fatalf("imported Predict: %v", err)
		}
		requireLabels(t, "Export → Import vs Deploy", got, want)
	})
}
