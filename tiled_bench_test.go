package gnnvault_test

import (
	"fmt"
	"testing"

	"gnnvault/internal/core"
)

// tiledBenchBudget is the acceptance bound: a real SGX1 EPC is 96 MB, of
// which persistent residents (rectifier params + private CSR) take their
// share at deploy time; 64 MB is a comfortable per-workspace budget that
// the 200k-node untiled plan (~307 MB) exceeds almost 5×.
const tiledBenchBudget = 64 << 20

// BenchmarkTiledFullGraph measures full-graph PredictInto through a
// fused, tile-streamed plan admitted under a 64 MB EPC budget, across the
// same power-law graphs as the subgraph sweep. The enclave streams the
// tiles on the one thread its ECALL entered on. Compare against
// BenchmarkFullGraphNodeQuery (the untiled
// baseline, inadmissible on real EPCs beyond ~60k nodes): "epcB" must
// stay ≤ the budget, and the hot path stays allocation-free. The vault
// registers no features, so every pass is the full pass — the backbone
// runs each time; BenchmarkVaultPredictInto has the registered-features
// legs.
func BenchmarkTiledFullGraph(b *testing.B) {
	for _, n := range subgraphBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := subgraphBenchVault(b, n)
			ws, err := st.v.PlanWith(st.v.Nodes(), core.PlanConfig{EPCBudgetBytes: tiledBenchBudget})
			if err != nil {
				b.Fatalf("PlanWith: %v", err)
			}
			defer ws.Release()
			if ws.EnclaveBytes() > tiledBenchBudget {
				b.Fatalf("tiled plan charged %d bytes, budget %d", ws.EnclaveBytes(), tiledBenchBudget)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := st.v.PredictInto(st.ds.X, ws); err != nil {
					b.Fatalf("PredictInto: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ws.EnclaveBytes()), "epcB")
			b.ReportMetric(float64(ws.TileRows()), "tileRows")
			b.ReportMetric(float64(ws.SpillBytes()), "spillB")
		})
	}
}
