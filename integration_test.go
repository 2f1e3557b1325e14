package gnnvault_test

// End-to-end integration tests: each asserts one of the paper's headline
// claims across module boundaries, using the shared trained state from
// bench_helpers_test.go (60-epoch budget on the cora stand-in).

import (
	"testing"

	"gnnvault/internal/attack"
	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
)

// TestClaimProtectionPerformance asserts the Table II claim: the public
// backbone is much worse than the original model, and every rectifier
// design recovers most of the gap.
func TestClaimProtectionPerformance(t *testing.T) {
	ds, orig := trainedOriginal(t)
	pOrg := orig.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	pBB := benchBB.TestAccuracy(ds.X, ds.Labels, ds.TestMask)
	if pOrg-pBB < 0.10 {
		t.Fatalf("backbone too accurate: p_org %.3f vs p_bb %.3f (need a >10pt gap)", pOrg, pBB)
	}
	for design, vault := range benchVault {
		labels, _, err := vault.Predict(ds.X)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		correct := 0
		for _, i := range ds.TestMask {
			if labels[i] == ds.Labels[i] {
				correct++
			}
		}
		pRec := float64(correct) / float64(len(ds.TestMask))
		if pRec <= pBB+0.05 {
			t.Errorf("%s: rectifier barely improves on the backbone (%.3f vs %.3f)", design, pRec, pBB)
		}
	}
}

// TestClaimNoEdgeLeakage asserts the Table IV claim: link-stealing AUC on
// GNNVault's observable surface drops to the feature-only baseline while
// the unprotected model leaks heavily.
func TestClaimNoEdgeLeakage(t *testing.T) {
	ds, orig := trainedOriginal(t)
	sample := attack.SamplePairs(ds.Graph, 250, 7)
	aucOrg := attack.Run(orig.Embeddings(ds.X), sample)
	aucGV := attack.Run(benchBB.Embeddings(ds.X), sample)
	for _, m := range attack.Metrics {
		if aucOrg[m]-aucGV[m] < 0.05 {
			t.Errorf("%s: protection gained only %.3f AUC (org %.3f, gv %.3f)",
				m, aucOrg[m]-aucGV[m], aucOrg[m], aucGV[m])
		}
	}
}

// TestClaimEnclaveFeasibility asserts the Fig. 6 claim: every rectifier
// deployment fits the 96 MB EPC with room to spare, and the output is
// label-only.
func TestClaimEnclaveFeasibility(t *testing.T) {
	ds, _ := trainedOriginal(t)
	for design, vault := range benchVault {
		labels, bd, err := vault.Predict(ds.X)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		for i, l := range labels {
			if l < 0 || l >= ds.NumClasses {
				t.Errorf("%s: output %d = %d outside label space [0,%d)", design, i, l, ds.NumClasses)
				break
			}
		}
		if bd.PeakEPCBytes > vault.Enclave.EPCLimit()/2 {
			t.Errorf("%s: peak EPC %d uses more than half the budget", design, bd.PeakEPCBytes)
		}
	}
}

// TestClaimBundleLifecycle asserts the deployment lifecycle works across
// module boundaries: export → import → identical predictions, with the
// sealed sections unreadable outside the measured enclave.
func TestClaimBundleLifecycle(t *testing.T) {
	ds, _ := trainedOriginal(t)
	vault := benchVault[core.Parallel]
	data, err := vault.Export("cora")
	if err != nil {
		t.Skipf("export unavailable for this backbone: %v", err)
	}
	imported, err := core.Import(data, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	want, _, err := vault.Predict(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := imported.Predict(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("imported vault diverges at node %d", i)
		}
	}
	// A different enclave build cannot unseal the private sections.
	stranger := enclave.New(enclave.DefaultCostModel(), []byte("other build"))
	sealedParams, _ := vault.SealedArtifacts()
	if _, err := stranger.Unseal(sealedParams); err == nil {
		t.Fatal("foreign enclave unsealed the rectifier")
	}
}

// TestClaimArchitectureGenerality asserts the future-work extension: the
// strategy holds under GraphSAGE and GAT too (trained at test budget).
func TestClaimArchitectureGenerality(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six models")
	}
	ds, _ := trainedOriginal(t)
	for _, conv := range []core.ConvKind{core.ConvSAGE, core.ConvGAT} {
		spec := core.SpecForDataset("cora")
		spec.Conv = conv
		cfg := core.PipelineConfig{
			Spec: spec, Design: core.Series,
			SubKind: "knn", KNNK: 2,
			Train:        core.TrainConfig{Epochs: 40, LR: 0.01, WeightDecay: 5e-4, Seed: 1},
			SkipOriginal: true,
		}
		res := core.RunPipeline(ds, cfg)
		if res.PRec <= res.PBB {
			t.Errorf("%s: Δp = %.3f ≤ 0", conv, res.DeltaP())
		}
	}
}
