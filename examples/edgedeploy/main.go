// Edgedeploy shows the TEE mechanics of a GNNVault deployment in detail:
// enclave measurement and attestation, sealing of the rectifier and the
// COO adjacency, EPC budgeting across rectifier designs, and the Fig. 6
// style inference-time breakdown against an unprotected CPU baseline.
package main

import (
	"fmt"
	"log"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/substitute"
)

func main() {
	ds := datasets.Load("pubmed")
	spec := core.SpecForDataset(ds.Name)
	train := core.TrainConfig{Epochs: 120, LR: 0.01, WeightDecay: 5e-4, Seed: 1}

	orig := core.TrainOriginal(ds, spec, train)
	_, cpuTime := core.UnprotectedInference(orig, ds.X)
	fmt.Printf("unprotected GNN on CPU: %v for %d nodes\n\n", cpuTime, ds.Graph.N())

	bb := core.TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), train)

	fmt.Printf("%-10s %-10s %-12s %-12s %-12s %-10s %-12s\n",
		"design", "θ_rec", "transfer", "enclave", "total", "overhead", "peak EPC")
	for _, design := range core.Designs {
		rec := core.TrainRectifier(ds, bb, design, train)
		vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
		if err != nil {
			log.Fatalf("%s: %v", design, err)
		}
		if _, _, err := vault.Predict(ds.X); err != nil { // warm-up
			log.Fatal(err)
		}
		_, bd, err := vault.Predict(ds.X)
		if err != nil {
			log.Fatal(err)
		}
		overhead := 100 * (float64(bd.Total()) - float64(cpuTime)) / float64(cpuTime)
		fmt.Printf("%-10s %-10.4fM %-12v %-12v %-12v %+8.0f%%  %.2f MB\n",
			design, float64(rec.NumParams())/1e6,
			bd.TransferTime, bd.EnclaveTime, bd.Total(), overhead,
			float64(bd.PeakEPCBytes)/(1<<20))
	}

	// The memory argument of Sec. III-C: the rectifier fits, the full
	// model does not (at the paper's scale).
	rec := core.TrainRectifier(ds, bb, core.Series, train)
	recMem := core.EnclaveMemoryEstimate(rec, bb.BlockDims, ds.Graph.N())
	fullMem := core.FullModelMemoryEstimate(orig, ds.Paper.Nodes, ds.Paper.Features)
	fmt.Printf("\nenclave memory: series rectifier %.2f MB; hosting the full original\n"+
		"GNN at paper scale (%d nodes, %d features) would need ≥ %.0f MB — past the\n"+
		"%d MB EPC, hence the partition.\n",
		float64(recMem)/(1<<20), ds.Paper.Nodes, ds.Paper.Features,
		float64(fullMem)/(1<<20), enclave.DefaultCostModel().EPCBytes>>20)

	// Deploy, then attest the enclave and show what it seals at rest.
	vault, err := core.Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	var nonce [32]byte
	copy(nonce[:], "alice-provisioning-nonce")
	report := vault.Enclave.Report(nonce)
	fmt.Printf("\nattestation: measurement %x… verifies: %v\n",
		report.Measurement[:8], vault.Enclave.VerifyReport(report))
	params, coo := vault.SealedArtifacts()
	fmt.Printf("sealed at rest: rectifier %d B + COO graph %d B (AES-256-GCM,\n"+
		"key derived from the measurement — a modified enclave cannot unseal)\n",
		len(params), len(coo))
}
