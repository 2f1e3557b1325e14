package core

import (
	"context"
	"errors"
	"testing"

	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/subgraph"
)

// TestShardFaultRecoverBitIdentical pins the recovery tentpole end to
// end, at fp64 and int8: a fault plan kills one shard's enclave mid-
// fleet, the pass fails with a ShardFault naming that shard (wrapping
// ErrEnclaveLost — peers unwind instead of deadlocking), the shard stays
// dead until RecoverShard re-seals and rejoins it, and the recovered
// fleet's labels are bit-identical to the pre-fault baseline — whether the
// pass runs the backbone over the caller's own copy of the features or
// reads the public-half store the recovery carried over.
func TestShardFaultRecoverBitIdentical(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	cost := enclave.DefaultCostModel()
	for _, tc := range []struct {
		name string
		cfg  PlanConfig
	}{
		{"fp64", PlanConfig{}},
		{"int8", PlanConfig{Precision: PrecisionInt8, MinAgreement: 0.5}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sv, err := DeploySharded(bb, rec, ds.Graph, cost, 3)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			defer sv.Undeploy()
			if err := sv.SetCalibrationFeatures(ds.X); err != nil {
				t.Fatal(err)
			}
			ws, err := sv.PlanSharded(ds.X.Rows, tc.cfg)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			defer ws.Release()
			base, _, err := sv.PredictInto(ds.X, ws)
			if err != nil {
				t.Fatalf("baseline predict: %v", err)
			}
			want := append([]int{}, base...)

			// Kill shard 1 at its next ECALL.
			const dead = 1
			sv.Shard(dead).Enclave.SetFaultPlan(&enclave.FaultPlan{AbortECalls: []int64{0}})
			_, _, err = sv.PredictInto(ds.X, ws)
			if !errors.Is(err, enclave.ErrEnclaveLost) {
				t.Fatalf("faulted predict: %v, want ErrEnclaveLost", err)
			}
			var sf *ShardFault
			if !errors.As(err, &sf) || sf.Shard != dead {
				t.Fatalf("faulted predict error %v does not attribute shard %d", err, dead)
			}
			// The shard is gone for good until recovered.
			if _, _, err := sv.PredictInto(ds.X, ws); !errors.Is(err, enclave.ErrEnclaveLost) {
				t.Fatalf("second faulted predict: %v, want ErrEnclaveLost", err)
			}
			if !sv.Shard(dead).Enclave.Lost() {
				t.Fatal("faulted shard enclave not marked lost")
			}

			oldVault := sv.Shard(dead)
			if err := sv.RecoverShard(dead, ws); err != nil {
				t.Fatalf("RecoverShard: %v", err)
			}
			if sv.Shard(dead) == oldVault {
				t.Fatal("RecoverShard did not swap the vault")
			}
			if sv.Shard(dead).Enclave.Lost() {
				t.Fatal("recovered enclave marked lost")
			}
			for pass, x := range []*mat.Matrix{ds.X.Clone(), ds.X, ds.X} {
				got, bd, err := sv.PredictInto(x, ws)
				if err != nil {
					t.Fatalf("post-recovery pass %d: %v", pass, err)
				}
				if reused := x == ds.X; bd.BackboneReused != reused {
					t.Fatalf("post-recovery pass %d: BackboneReused = %v, want %v", pass, bd.BackboneReused, reused)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("post-recovery pass %d label[%d] = %d, baseline %d", pass, i, got[i], want[i])
					}
				}
				if bd.ECalls != sv.Shards() {
					t.Fatalf("post-recovery pass %d: %d ECALLs, want %d", pass, bd.ECalls, sv.Shards())
				}
			}
		})
	}
}

// TestShardedPredictContextDeadline pins the deadline contract: an
// already-expired context fails the pass with ctx.Err() wrapped, kills
// no enclave, and the workspace serves the next pass normally.
func TestShardedPredictContextDeadline(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer sv.Undeploy()
	ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	defer ws.Release()
	want, _, err := sv.PredictInto(ds.X, ws)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]int{}, want...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sv.PredictIntoContext(ctx, ds.X, ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled predict: %v, want context.Canceled", err)
	}
	for s := 0; s < sv.Shards(); s++ {
		if sv.Shard(s).Enclave.Lost() {
			t.Fatalf("cancelled pass killed shard %d", s)
		}
	}
	got, _, err := sv.PredictInto(ds.X, ws)
	if err != nil {
		t.Fatalf("predict after cancellation: %v", err)
	}
	for i := range wantCopy {
		if got[i] != wantCopy[i] {
			t.Fatalf("label[%d] = %d after cancellation, want %d", i, got[i], wantCopy[i])
		}
	}
}

// TestShardedWorkspaceAbortIdleIsBenign pins that an Abort landing while
// no pass is in flight (the SetShardAvailable race window) leaves no
// stale poison: the next pass runs clean.
func TestShardedWorkspaceAbortIdleIsBenign(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer sv.Undeploy()
	ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	defer ws.Release()
	ws.Abort(errors.New("administrative"))
	// Poison the barrier directly too — the worst case Abort could race
	// into — and the pass must still recover by re-arming on entry.
	ws.fleet.Abort(errors.New("stale"))
	if _, _, err := sv.PredictInto(ds.X, ws); err != nil {
		t.Fatalf("predict after idle abort: %v", err)
	}
}

// TestRecoverShardRefusals covers the guard rails: bad index, foreign
// workspace, and a workspace with a pass in flight.
func TestRecoverShardRefusals(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Parallel)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer sv.Undeploy()
	ws, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	defer ws.Release()
	if err := sv.RecoverShard(5, ws); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	other, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Undeploy()
	if err := other.RecoverShard(0, ws); err == nil {
		t.Fatal("foreign workspace accepted")
	}
	ws.inflight.Store(true)
	if err := sv.RecoverShard(0, ws); err == nil {
		t.Fatal("busy workspace accepted")
	}
	ws.inflight.Store(false)
	if err := sv.RecoverShard(0, ws); err != nil {
		t.Fatalf("recovery of a healthy shard (idempotent restart): %v", err)
	}
}

// TestShardedNodeQueryLostAndRecovered pins the node-query path through
// a shard loss: queries to the dead shard fail with ErrEnclaveLost,
// queries keep their deadline contract, and after RecoverShard a
// subgraph workspace replanned from the fresh vault answers bit-
// identically to the pre-fault shard.
func TestShardedNodeQueryLostAndRecovered(t *testing.T) {
	ds, bb, rec := shardTestModel(t, Series)
	sv, err := DeploySharded(bb, rec, ds.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer sv.Undeploy()
	scfg := subgraph.Config{Hops: 2, Fanout: 4, Seed: 11}
	seeds := []int{1}
	s, err := sv.RouteSeeds(seeds)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sv.Shard(s).PlanSubgraph(2, scfg)
	if err != nil {
		t.Fatalf("subgraph plan: %v", err)
	}
	want, _, _, err := sv.PredictNodesAt(ds.X, seeds, s, ws)
	if err != nil {
		t.Fatalf("baseline query: %v", err)
	}
	wantCopy := append([]int{}, want...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sv.PredictNodesAtContext(ctx, ds.X, seeds, s, ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled node query: %v, want context.Canceled", err)
	}

	sv.Shard(s).Enclave.MarkLost()
	if _, _, _, err := sv.PredictNodesAt(ds.X, seeds, s, ws); !errors.Is(err, enclave.ErrEnclaveLost) {
		t.Fatalf("query on lost shard: %v, want ErrEnclaveLost", err)
	}
	ws.Release()

	if err := sv.RecoverShard(s); err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	fresh, err := sv.Shard(s).PlanSubgraph(2, scfg)
	if err != nil {
		t.Fatalf("replanning subgraph on recovered shard: %v", err)
	}
	defer fresh.Release()
	got, _, _, err := sv.PredictNodesAt(ds.X, seeds, s, fresh)
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	for i := range wantCopy {
		if got[i] != wantCopy[i] {
			t.Fatalf("post-recovery label[%d] = %d, want %d", i, got[i], wantCopy[i])
		}
	}
}
