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
// dead until RecoverShard re-seals it, the workspace planned before the
// fault refuses every later pass, and a workspace re-planned on the
// recovered fleet answers bit-identically to the pre-fault baseline —
// whether the pass runs the backbone over the caller's own copy of the
// features or reads the public-half store the recovery carried over. A
// failed pass forgets the store record the machines held: the surviving
// shards bill their payload in full on the pass after the abort, and so
// does the re-planned workspace's first pass over the store, while the
// pass after that bills none.
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
			// Three passes over the registered features: at the latest the
			// last reads the record the one before bound, so its machines
			// hold the payload.
			var want []int
			bound := false
			for pass := 0; pass < 3; pass++ {
				base, bd, err := sv.PredictInto(ds.X, ws)
				if err != nil {
					t.Fatalf("baseline predict %d: %v", pass, err)
				}
				if pass == 0 {
					want = append([]int{}, base...)
				}
				requireLabels(t, "baseline", base, want)
				held := bound && bd.BackboneReused
				bound = bd.BackboneReused
				requireBytesIn(t, "baseline pass", ws, bd, held)
				if pass == 2 && !held {
					t.Fatal("the third pass over the registered features did not hold its payload")
				}
			}

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
			// The shard is gone for good until recovered, and the survivors
			// have forgotten the record they held.
			before := make([]enclave.Ledger, sv.Shards())
			for s := range before {
				before[s] = sv.Shard(s).Enclave.Ledger()
			}
			if _, _, err := sv.PredictInto(ds.X, ws); !errors.Is(err, enclave.ErrEnclaveLost) {
				t.Fatalf("second faulted predict: %v, want ErrEnclaveLost", err)
			}
			for s := range before {
				if s == dead {
					continue
				}
				in := sv.Shard(s).Enclave.Ledger().BytesIn - before[s].BytesIn
				if want := ws.payload[s] + ws.spill[s] + ws.halo[s]; in != want {
					t.Fatalf("pass after the abort: shard %d billed %d B in, want its full payload, spill and halo %d", s, in, want)
				}
			}
			if !sv.Shard(dead).Enclave.Lost() {
				t.Fatal("faulted shard enclave not marked lost")
			}

			oldVault := sv.Shard(dead)
			if err := sv.RecoverShard(dead); err != nil {
				t.Fatalf("RecoverShard: %v", err)
			}
			if sv.Shard(dead) == oldVault {
				t.Fatal("RecoverShard did not swap the vault")
			}
			if sv.Shard(dead).Enclave.Lost() {
				t.Fatal("recovered enclave marked lost")
			}
			if _, _, err := sv.PredictInto(ds.X, ws); err == nil {
				t.Fatal("a workspace planned before the fault served a pass after recovery")
			}
			ws.Release()
			if ws, err = sv.PlanSharded(ds.X.Rows, tc.cfg); err != nil {
				t.Fatalf("re-plan after recovery: %v", err)
			}
			defer ws.Release()
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
				requireBytesIn(t, "post-recovery pass", ws, bd, pass == 2)
			}
		})
	}
}

// requireBytesIn checks what a pass over ws billed in: its spill and halo,
// plus its full embedding payload unless held.
func requireBytesIn(t *testing.T, what string, ws *Workspace, bd InferenceBreakdown, held bool) {
	t.Helper()
	want := ws.SpillBytes() + ws.HaloBytes()
	if !held {
		want += ws.payloadBytes()
	}
	if bd.BytesIn != want {
		t.Fatalf("%s: BytesIn %d, want %d (payload held: %v)", what, bd.BytesIn, want, held)
	}
}

// TestShardedPredictContextDeadline pins the deadline contract: an
// already-expired context fails the pass with ctx.Err() wrapped, kills
// no enclave, and the workspace serves the next pass normally. The
// failed pass forgets the store record the machines held: the next pass
// bills the full payload and the one after it none.
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
	if err := sv.SetCalibrationFeatures(ds.X); err != nil {
		t.Fatal(err)
	}
	var wantCopy []int
	for pass := 0; pass < 3; pass++ { // fill the store, bind it, hold it
		got, bd, err := sv.PredictInto(ds.X, ws)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy = append(wantCopy[:0], got...)
		requireBytesIn(t, "pass before the deadline", ws, bd, pass == 2)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := ws.PredictContext(ctx, ds.X, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled predict: %v, want context.Canceled", err)
	}
	for s := 0; s < sv.Shards(); s++ {
		if sv.Shard(s).Enclave.Lost() {
			t.Fatalf("cancelled pass killed shard %d", s)
		}
	}
	for pass := 0; pass < 2; pass++ {
		got, bd, err := sv.PredictInto(ds.X, ws)
		if err != nil {
			t.Fatalf("predict after cancellation: %v", err)
		}
		for i := range wantCopy {
			if got[i] != wantCopy[i] {
				t.Fatalf("label[%d] = %d after cancellation, want %d", i, got[i], wantCopy[i])
			}
		}
		requireBytesIn(t, "pass after the deadline", ws, bd, pass == 1)
	}
}

// TestShardedWorkspaceAbortIdleIsBenign pins that a fleet abort landing
// while no pass is in flight (a cancelled context's watcher racing the
// pass's end) leaves no stale poison: the next pass runs clean.
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
	ws.fleet.Abort(errors.New("stale"))
	if _, _, err := sv.PredictInto(ds.X, ws); err != nil {
		t.Fatalf("predict after idle abort: %v", err)
	}
}

// TestRecoverShardRefusals covers the guard rails: a bad index is
// refused, and after a recovery the workspace planned before it refuses
// every pass, and releasing it frees its EPC on the enclaves it charged —
// the replaced shard's old enclave and the live peers — never on the
// replacement, which it never charged.
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
	if err := sv.RecoverShard(5); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	old, peer := sv.Shard(0).Enclave, sv.Shard(1).Enclave
	oldUsed, peerUsed := old.EPCUsed(), peer.EPCUsed()
	if err := sv.RecoverShard(0); err != nil {
		t.Fatalf("recovery of a healthy shard (idempotent restart): %v", err)
	}
	fresh := sv.Shard(0).Enclave
	freshUsed := fresh.EPCUsed()
	if _, _, err := sv.PredictInto(ds.X, ws); err == nil {
		t.Fatal("a workspace planned against the replaced vault served a pass")
	}
	ws.Release()
	if got, want := fresh.EPCUsed(), freshUsed; got != want {
		t.Fatalf("release freed %d bytes on the replacement enclave it never charged", want-got)
	}
	if got, want := peer.EPCUsed(), peerUsed-ws.ShardEnclaveBytes(1); got != want {
		t.Fatalf("peer EPC after release = %d, want %d", got, want)
	}
	if got, want := old.EPCUsed(), oldUsed-sv.Shard(0).PersistentBytes()-ws.ShardEnclaveBytes(0); got != want {
		t.Fatalf("replaced enclave EPC after release = %d, want %d", got, want)
	}
	re, err := sv.PlanSharded(ds.X.Rows, PlanConfig{})
	if err != nil {
		t.Fatalf("re-plan after recovery: %v", err)
	}
	defer re.Release()
	if _, _, err := sv.PredictInto(ds.X, re); err != nil {
		t.Fatalf("pass on the re-planned workspace: %v", err)
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
	if _, _, _, _, err := sv.PredictNodesAtContext(ctx, ds.X, seeds, s, ws, false); !errors.Is(err, context.Canceled) {
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
