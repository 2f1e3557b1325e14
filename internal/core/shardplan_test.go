package core

import (
	"errors"
	"testing"

	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
	"gnnvault/internal/substitute"
)

// shardTestModel trains the small cora backbone+rectifier pair the
// sharded tests deploy both ways: once as a single-enclave vault (the
// bit-identity reference) and once across a shard fleet.
func shardTestModel(t testing.TB, design RectifierDesign) (*datasets.Dataset, *Backbone, *Rectifier) {
	t.Helper()
	ds := datasets.Load("cora")
	cfg := TrainConfig{Epochs: 20, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
	spec := SpecForDataset("cora")
	bb := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := TrainRectifier(ds, bb, design, cfg)
	return ds, bb, rec
}

// TestShardedPredictBitIdentical pins the tentpole invariant: a sharded
// plan's labels equal the single-enclave plan's, label for label, at
// every shard count and precision tier, tiled or not — sharding is a
// capacity move, never an accuracy one. Each fleet answers three times:
// for the caller's own copy of the features (the backbone runs), for the
// registered features (the first such pass fills the fleet's public-half
// store; an int8 plan's calibration already has) and for them again (the
// store is read) — same labels every time.
func TestShardedPredictBitIdentical(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	cost := enclave.DefaultCostModel()
	single, err := Deploy(bb, rec, ds.Graph, cost)
	if err != nil {
		t.Fatalf("deploy reference: %v", err)
	}
	if err := single.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatalf("calibration features: %v", err)
	}
	ownX := ds.X.Clone()
	cfgs := []struct {
		name string
		cfg  PlanConfig
	}{
		{"fp64", PlanConfig{}},
		{"fp64-tiled", PlanConfig{EPCBudgetBytes: 1 << 20}},
		{"int8", PlanConfig{Precision: PrecisionInt8, MinAgreement: 0.5}},
	}
	for _, tc := range cfgs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ws, err := single.PlanWith(ds.X.Rows, tc.cfg)
			if err != nil {
				t.Fatalf("reference plan: %v", err)
			}
			defer ws.Release()
			want, _, err := single.PredictInto(ds.X, ws)
			if err != nil {
				t.Fatalf("reference predict: %v", err)
			}
			for shards := 1; shards <= 3; shards++ {
				sv, err := DeploySharded(bb, rec, ds.Graph, cost, shards)
				if err != nil {
					t.Fatalf("%d shards: deploy: %v", shards, err)
				}
				defer sv.Undeploy()
				if err := sv.SetCalibrationFeatures(ds.X); err != nil {
					t.Fatalf("%d shards: calibration features: %v", shards, err)
				}
				sws, err := sv.PlanSharded(ds.X.Rows, tc.cfg)
				if err != nil {
					t.Fatalf("%d shards: plan: %v", shards, err)
				}
				defer sws.Release()
				reduced := tc.cfg.Precision == PrecisionInt8
				for pass, p := range []struct {
					x      *mat.Matrix
					reused bool
				}{{ownX, false}, {ds.X, reduced}, {ds.X, true}} {
					got, bd, err := sv.PredictInto(p.x, sws)
					if err != nil {
						t.Fatalf("%d shards pass %d: predict: %v", shards, pass, err)
					}
					if bd.BackboneReused != p.reused {
						t.Fatalf("%d shards pass %d: BackboneReused = %v, want %v", shards, pass, bd.BackboneReused, p.reused)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%d shards pass %d: label[%d] = %d, single-enclave %d",
								shards, pass, i, got[i], want[i])
						}
					}
					if bd.ECalls != shards {
						t.Fatalf("%d shards: %d ECALLs, want one per shard", shards, bd.ECalls)
					}
					if wantIn := sws.PayloadBytes() + sws.SpillBytes() + sws.HaloBytes(); bd.BytesIn != wantIn {
						t.Fatalf("%d shards: BytesIn %d, want payload+spill+halo %d", shards, bd.BytesIn, wantIn)
					}
				}
				if shards > 1 && sws.HaloBytes() == 0 {
					t.Fatalf("%d shards: no halo traffic on a connected graph", shards)
				}
				if shards == 1 && sws.HaloBytes() != 0 {
					t.Fatalf("1 shard: halo traffic %d, want 0", sws.HaloBytes())
				}
			}
		})
	}
}

// TestShardedNodeQueriesBitIdentical routes node queries to the shard
// owning the first seed and pins the answers to the single-enclave
// subgraph engine's: expansion is a deterministic function of (seeds,
// config), so the induced forward — and hence every label — must agree
// exactly. Cross-shard extracted rows must be priced as OCALLs + halo
// bytes on the serving shard's ledger.
func TestShardedNodeQueriesBitIdentical(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Series)
	cost := enclave.DefaultCostModel()
	single, err := Deploy(bb, rec, ds.Graph, cost)
	if err != nil {
		t.Fatalf("deploy reference: %v", err)
	}
	scfg := subgraph.Config{Hops: 2, Fanout: 4, Seed: 11}
	refWS, err := single.PlanSubgraph(3, scfg)
	if err != nil {
		t.Fatalf("reference subgraph plan: %v", err)
	}
	defer refWS.Release()

	sv, err := DeploySharded(bb, rec, ds.Graph, cost, 3)
	if err != nil {
		t.Fatalf("sharded deploy: %v", err)
	}
	defer sv.Undeploy()
	shardWS := make([]*SubgraphWorkspace, sv.Shards())
	for s := range shardWS {
		ws, err := sv.Shard(s).PlanSubgraph(3, scfg)
		if err != nil {
			t.Fatalf("shard %d subgraph plan: %v", s, err)
		}
		defer ws.Release()
		shardWS[s] = ws
	}

	n := ds.Graph.N()
	batches := [][]int{{0}, {n - 1}, {n / 2, n/2 + 1}, {1, n - 2, n / 3}}
	sawCross := false
	for _, seeds := range batches {
		want, _, err := single.PredictNodesInto(ds.X, seeds, refWS)
		if err != nil {
			t.Fatalf("reference query %v: %v", seeds, err)
		}
		wantCopy := append([]int{}, want...)

		s, err := sv.RouteSeeds(seeds)
		if err != nil {
			t.Fatalf("route %v: %v", seeds, err)
		}
		if own := sv.Owner(seeds[0]); s != own {
			t.Fatalf("route %v to shard %d, owner is %d", seeds, s, own)
		}
		before := sv.Shard(s).Enclave.Ledger()
		got, haloBytes, _, err := sv.PredictNodesAt(ds.X, seeds, s, shardWS[s])
		if err != nil {
			t.Fatalf("sharded query %v: %v", seeds, err)
		}
		for i := range wantCopy {
			if got[i] != wantCopy[i] {
				t.Fatalf("query %v label[%d] = %d, single-enclave %d", seeds, i, got[i], wantCopy[i])
			}
		}
		cross := 0
		for _, u := range shardWS[s].ExtractedNodes() {
			if sv.Owner(u) != s {
				cross++
			}
		}
		after := sv.Shard(s).Enclave.Ledger()
		if gotOC := after.OCalls - before.OCalls; gotOC != cross {
			t.Fatalf("query %v: %d OCALLs for %d cross-shard rows", seeds, gotOC, cross)
		}
		if (haloBytes > 0) != (cross > 0) {
			t.Fatalf("query %v: halo bytes %d with %d cross-shard rows", seeds, haloBytes, cross)
		}
		if cross > 0 {
			sawCross = true
		}
	}
	if !sawCross {
		t.Fatal("no batch induced cross-shard rows; test exercises nothing")
	}

	if _, err := sv.RouteSeeds(nil); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("empty route: %v, want ErrNodeOutOfRange", err)
	}
	if _, err := sv.RouteSeeds([]int{n}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out-of-range route: %v, want ErrNodeOutOfRange", err)
	}
}

// TestShardedEPCChargedPerShardAndReleased verifies the fleet's EPC
// story: deploy charges each enclave for the parameters plus its own
// slab, the plan charges each shard its reported share, and Release
// returns exactly that.
func TestShardedEPCChargedPerShardAndReleased(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 4)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer sv.Undeploy()
	var slabs int64
	base := make([]int64, sv.Shards())
	for s := 0; s < sv.Shards(); s++ {
		base[s] = sv.Shard(s).Enclave.EPCUsed()
		if want := rec.ParamBytes() + sv.Part.CSR[s].NumBytes(); base[s] != want {
			t.Fatalf("shard %d residents %d, want params+slab %d", s, base[s], want)
		}
		slabs += sv.Part.CSR[s].NumBytes()
	}
	// nnz and row-pointer arrays are disjoint slices of the parent's, so
	// the fleet's total adjacency residency stays in the same ballpark as
	// the single enclave's (halo columns do not duplicate values).
	if full := rec.Adjacency().NumBytes(); slabs > full+int64(sv.Shards())*64 {
		t.Fatalf("slab total %d far exceeds full adjacency %d", slabs, full)
	}

	ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	var total int64
	for s := 0; s < sv.Shards(); s++ {
		charged := sv.Shard(s).Enclave.EPCUsed() - base[s]
		if charged != ws.ShardEnclaveBytes(s) {
			t.Fatalf("shard %d charged %d, workspace reports %d", s, charged, ws.ShardEnclaveBytes(s))
		}
		total += charged
	}
	if total != ws.EnclaveBytes() || total <= 0 {
		t.Fatalf("total charge %d, workspace reports %d", total, ws.EnclaveBytes())
	}
	ws.Release()
	ws.Release() // idempotent
	for s := 0; s < sv.Shards(); s++ {
		if got := sv.Shard(s).Enclave.EPCUsed(); got != base[s] {
			t.Fatalf("shard %d EPC after release %d, want %d", s, got, base[s])
		}
	}
}

// TestDeployShardedRejectsNonGCN: only GCN convs have a halo lowering, so
// a SAGE or GAT rectifier cannot be partitioned across a fleet.
func TestDeployShardedRejectsNonGCN(t *testing.T) {
	ds := datasets.Load("cora")
	cfg := TrainConfig{Epochs: 2, LR: 0.01, Seed: 1}
	spec := SpecForDataset("cora")
	spec.Conv = ConvSAGE
	bb := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	rec := TrainRectifier(ds, bb, Series, cfg)
	if _, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2); !errors.Is(err, ErrShardUnsupported) {
		t.Fatalf("SAGE rectifier: %v, want ErrShardUnsupported", err)
	}
	spec = SpecForDataset("cora")
	bbGCN := TrainBackbone(ds, spec, substitute.KindKNN, substitute.KNN(ds.X, 2), cfg)
	if _, err := DeploySharded(bbGCN, TrainRectifier(ds, bbGCN, Series, cfg), ds.Graph, enclave.DefaultCostModel(), 0); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// TestShardedPlanValidation runs the plan/predict guard-rail table of
// runPlanGuardRails against a 2-shard ShardedVault.
func TestShardedPlanValidation(t *testing.T) { runPlanGuardRails(t, 1) }
