package registry

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/substitute"
)

// Shared trained model state: every test deploys fresh vaults (cheap) from
// one trained backbone+rectifier pair (expensive).
var (
	regOnce    sync.Once
	regDS      *datasets.Dataset
	regBB      *core.Backbone
	regRec     *core.Rectifier
	regPersist int64 // persistent EPC per deployed vault
	regWSBytes int64 // EPC per planned workspace
)

func trained(t testing.TB) {
	t.Helper()
	regOnce.Do(func() {
		regDS = datasets.Load("cora")
		cfg := core.TrainConfig{Epochs: 10, LR: 0.01, WeightDecay: 5e-4, Seed: 1}
		spec := core.SpecForDataset("cora")
		regBB = core.TrainBackbone(regDS, spec, substitute.KindKNN, substitute.KNN(regDS.X, 2), cfg)
		regRec = core.TrainRectifier(regDS, regBB, core.Parallel, cfg)
		// Measure the two EPC quanta on a throwaway roomy deployment.
		v, err := core.Deploy(regBB, regRec, regDS.Graph, enclave.DefaultCostModel())
		if err != nil {
			panic(err)
		}
		regPersist = v.PersistentBytes()
		ws, err := v.Plan(v.Nodes())
		if err != nil {
			panic(err)
		}
		regWSBytes = ws.EnclaveBytes()
		ws.Release()
	})
}

// newFleet deploys n vaults (sharing the trained backbone/rectifier) into
// one enclave whose EPC fits every vault's persistent state plus exactly
// `admit` planned workspaces, and registers them as v0…v(n-1).
func newFleet(t testing.TB, n, admit int, cfg Config) (*enclave.Enclave, *Registry, []string) {
	t.Helper()
	trained(t)
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = int64(n)*regPersist + int64(admit)*regWSBytes + regWSBytes/2
	encl := enclave.New(cost, regRec.Identity())
	reg := New(encl, cfg)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "v" + string(rune('0'+i))
		v, err := core.DeployInto(encl, regBB, regRec, regDS.Graph)
		if err != nil {
			t.Fatalf("deploy %s: %v", ids[i], err)
		}
		if err := reg.Register(ids[i], v); err != nil {
			t.Fatalf("register %s: %v", ids[i], err)
		}
	}
	return encl, reg, ids
}

// serveOne acquires, predicts, and releases one request for id.
func serveOne(t testing.TB, reg *Registry, id string) {
	t.Helper()
	v, ws, err := reg.Acquire(id)
	if err != nil {
		t.Fatalf("acquire %s: %v", id, err)
	}
	if _, _, err := v.PredictInto(regDS.X, ws); err != nil {
		t.Fatalf("predict %s: %v", id, err)
	}
	reg.Release(id, ws)
}

func TestRegistryLazyPlanAndHotReuse(t *testing.T) {
	_, reg, ids := newFleet(t, 2, 4, Config{})
	defer reg.Close()

	serveOne(t, reg, ids[0])
	serveOne(t, reg, ids[0]) // hot: must reuse the cached workspace
	serveOne(t, reg, ids[1])

	st := reg.Stats()
	if st.Requests != 3 || st.Plans != 2 || st.Evictions != 0 {
		t.Fatalf("requests/plans/evictions = %d/%d/%d, want 3/2/0",
			st.Requests, st.Plans, st.Evictions)
	}
	if st.Resident != 2 {
		t.Fatalf("resident %d, want 2", st.Resident)
	}
	if got := st.PerVault[0]; got.ID != ids[0] || got.Requests != 2 || got.Plans != 1 {
		t.Fatalf("per-vault stats for %s: %+v", ids[0], got)
	}
	if st.EPCFree != st.EPCLimit-st.EPCUsed {
		t.Fatalf("EPCFree %d != limit %d - used %d", st.EPCFree, st.EPCLimit, st.EPCUsed)
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	_, reg, ids := newFleet(t, 1, 2, Config{})
	defer reg.Close()
	if err := reg.Register(ids[0], reg.Vault(ids[0])); err == nil {
		t.Fatal("duplicate id accepted")
	}
	other, err := core.Deploy(regBB, regRec, regDS.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("foreign", other); err == nil {
		t.Fatal("vault from a different enclave accepted")
	}
	if _, _, err := reg.Acquire("nope"); !errors.Is(err, ErrUnknownVault) {
		t.Fatalf("unknown vault: %v, want ErrUnknownVault", err)
	}

	// NodeQueryConfig: a negative field is refused by name from both
	// calls that take the config in; zero keeps its documented meaning.
	// A negative WorkspacesPerVault is programmer error: New panics,
	// naming it.
	sv, err := core.DeploySharded(regBB, regRec, regDS.Graph, enclave.DefaultCostModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Undeploy()
	for _, tc := range []struct {
		nq       NodeQueryConfig
		field    string // "" = accepted
		want     NodeQueryConfig
		perVault int
	}{
		{NodeQueryConfig{}, "", NodeQueryConfig{Hops: 2, Fanout: 0, MaxSeeds: 16}, 0},
		{NodeQueryConfig{Hops: 3, Fanout: 5, MaxSeeds: 4}, "", NodeQueryConfig{Hops: 3, Fanout: 5, MaxSeeds: 4}, 0},
		{NodeQueryConfig{Hops: -1}, "Hops", NodeQueryConfig{}, 0},
		{NodeQueryConfig{Fanout: -1}, "Fanout", NodeQueryConfig{}, 0},
		{NodeQueryConfig{MaxSeeds: -2}, "MaxSeeds", NodeQueryConfig{}, 0},
		{NodeQueryConfig{}, "WorkspacesPerVault", NodeQueryConfig{}, -1},
	} {
		if tc.perVault < 0 {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, tc.field) {
						t.Errorf("WorkspacesPerVault %d: New panicked with %q, want a panic naming %s", tc.perVault, msg, tc.field)
					}
				}()
				New(nil, Config{NodeQuery: &tc.nq, WorkspacesPerVault: tc.perVault})
			}()
			continue
		}
		_, nqReg, nqIDs := newFleet(t, 1, 1, Config{NodeQuery: &tc.nq, WorkspacesPerVault: tc.perVault})
		errs := []error{nqReg.EnableNodeQueries(nqIDs[0], regDS.X), nqReg.RegisterFleet("fleet", sv)}
		for i, err := range errs {
			var rangeErr *NodeQueryRangeError
			switch {
			case tc.field == "" && err != nil:
				t.Errorf("%+v: call %d refused a valid config: %v", tc.nq, i, err)
			case tc.field != "" && (!errors.As(err, &rangeErr) || rangeErr.Field != tc.field):
				t.Errorf("%+v: call %d = %v, want a NodeQueryRangeError naming %s", tc.nq, i, err, tc.field)
			}
		}
		if got := *nqReg.cfg.NodeQuery; tc.field == "" && got != tc.want {
			t.Errorf("%+v: effective config %+v, want %+v", tc.nq, got, tc.want)
		}
		nqReg.Close()
	}
}

// TestRegistryRecoverFleetPart recovers a lost part of a 3-shard fleet
// entry through the registry while full-graph and node-query checkouts of
// every part run concurrently: no workspace checked out after the
// recovery is stale, the fleet answers the pre-fault labels, and every
// shard enclave — the replacement included — holds exactly its deploy
// residents plus the workspaces the entry caches, so no workspace ever
// freed EPC on an enclave it did not charge.
func TestRegistryRecoverFleetPart(t *testing.T) {
	trained(t)
	sv, err := core.DeploySharded(regBB, regRec, regDS.Graph, enclave.DefaultCostModel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Undeploy()
	if err := sv.SetCalibrationFeatures(regDS.X); err != nil {
		t.Fatal(err)
	}
	nq := nodeQueryGeometry()
	reg := New(nil, Config{NodeQuery: &nq})
	defer reg.Close()
	const id = "fleet"
	if err := reg.RegisterFleet(id, sv); err != nil {
		t.Fatal(err)
	}
	if err := reg.EnableNodeQueries(id, regDS.X); err != nil {
		t.Fatal(err)
	}
	full := func() ([]int, error) {
		_, ws, err := reg.Acquire(id)
		if err != nil {
			return nil, err
		}
		defer reg.Release(id, ws)
		labels, _, _, err := ws.PredictContext(context.Background(), regDS.X, false)
		return append([]int(nil), labels...), err
	}
	want, err := full()
	if err != nil {
		t.Fatalf("pre-fault pass: %v", err)
	}

	const dead = 1
	var recovered atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	client := func(serve func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			after := recovered.Load()
			if err := serve(); err != nil && after {
				errs <- err
				return
			}
		}
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go client(func() error {
			got, err := full()
			if err == nil && !slices.Equal(got, want) {
				err = errors.New("full-graph labels drifted from the pre-fault answer")
			}
			return err
		})
	}
	for p := 0; p < sv.Shards(); p++ {
		seed := sv.Bounds()[p]
		wg.Add(1)
		go client(func() error {
			_, ws, x, err := reg.AcquireSubgraphPart(id, p)
			if err != nil {
				return err
			}
			defer reg.ReleaseSubgraphPart(id, p, ws)
			_, _, _, _, err = sv.PredictNodesAtContext(context.Background(), x, []int{seed}, p, ws, false)
			return err
		})
	}
	sv.Shard(dead).Enclave.MarkLost()
	if err := reg.RecoverPart(id, dead); err != nil {
		t.Fatalf("RecoverPart: %v", err)
	}
	recovered.Store(true)
	for deadline := time.Now().Add(5 * time.Second); reg.Stats().Requests < 200 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("checkout after recovery: %v", err)
	}
	if sv.Shard(dead).Enclave.Lost() {
		t.Fatal("the recovered part still runs on the lost enclave")
	}
	if got, err := full(); err != nil || !slices.Equal(got, want) {
		t.Fatalf("post-recovery pass: %v, labels equal %v", err, slices.Equal(got, want))
	}

	reg.mu.Lock()
	e := reg.vaults[id]
	for s := 0; s < sv.Shards(); s++ {
		v := sv.Shard(s)
		wantEPC := v.PersistentBytes()
		for _, ws := range e.free {
			wantEPC += ws.ShardEnclaveBytes(s)
		}
		for _, ws := range e.parts[s].free {
			wantEPC += ws.EnclaveBytes()
		}
		if got := v.Enclave.EPCUsed(); got != wantEPC {
			t.Errorf("shard %d enclave holds %d EPC bytes, want %d (deploy residents plus the cached workspaces)", s, got, wantEPC)
		}
	}
	reg.mu.Unlock()
}

// tightFleet deploys a shards-part fleet whose enclaves each hold one
// full-graph workspace and no second: the EPC limit is the largest shard's
// deploy residents plus its share of one workspace, measured on a roomy
// throwaway deployment.
func tightFleet(t *testing.T, shards int) *core.ShardedVault {
	t.Helper()
	trained(t)
	probe, err := core.DeploySharded(regBB, regRec, regDS.Graph, enclave.DefaultCostModel(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := probe.PlanSharded(probe.Nodes(), core.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = 0
	for s := 0; s < shards; s++ {
		cost.EPCBytes = max(cost.EPCBytes, probe.Shard(s).PersistentBytes()+ws.ShardEnclaveBytes(s))
	}
	ws.Release()
	probe.Undeploy()
	sv, err := core.DeploySharded(regBB, regRec, regDS.Graph, cost, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Undeploy)
	return sv
}

// TestFleetAdmissionWaitsForItsOwnRelease: a fleet entry whose enclaves
// hold one full-graph workspace, at two per vault. A second Acquire while
// the first workspace is out waits — and however often it is woken, it
// does not build again the plan the fleet's enclaves refused, since only
// the fleet's own release can make room — then takes the released
// workspace. Warm never waits: asked for a second workspace it fails with
// the EPC error, held first workspace or not. Every refused plan leaves
// the enclaves as it found them.
func TestFleetAdmissionWaitsForItsOwnRelease(t *testing.T) {
	sv := tightFleet(t, 2)
	reg := New(nil, Config{WorkspacesPerVault: 2})
	const id = "fleet"
	if err := reg.RegisterFleet(id, sv); err != nil {
		t.Fatal(err)
	}
	failures := func() (n int) {
		for s := 0; s < sv.Shards(); s++ {
			n += sv.Shard(s).Enclave.Ledger().AllocFailures
		}
		return n
	}
	within := func(what string, ch <-chan error) error {
		t.Helper()
		select {
		case err := <-ch:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", what)
			return nil
		}
	}

	_, held, err := reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		_, ws, err := reg.Acquire(id)
		if err == nil {
			reg.Release(id, ws)
		}
		acquired <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		reg.mu.Lock()
		refused := reg.vaults[id].refused != 0
		reg.mu.Unlock()
		if refused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second acquire never tried to plan")
		}
	}
	refusals := failures()
	for i := 0; i < 50; i++ { // wake-ups a release elsewhere would cause
		reg.mu.Lock()
		reg.cond.Broadcast()
		reg.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-acquired:
		t.Fatalf("second acquire returned (%v) while the first workspace was held", err)
	default:
	}
	if got, st := failures(), reg.Stats(); got != refusals || st.Plans != 1 {
		t.Fatalf("woken waiter: %d more refused allocations, %d plans; want none and 1", got-refusals, st.Plans)
	}
	reg.Release(id, held)
	if err := within("the waiting acquire", acquired); err != nil {
		t.Fatalf("waiting acquire: %v", err)
	}

	_, held, err = reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	warmed := make(chan error, 1)
	go func() { warmed <- reg.Warm(id, 2) }()
	if err := within("Warm with a workspace held", warmed); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("Warm with a workspace held: %v, want ErrEPCExhausted", err)
	}
	reg.Release(id, held)
	go func() { warmed <- reg.Warm(id, 2) }()
	if err := within("Warm with nothing held", warmed); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("Warm with nothing held: %v, want ErrEPCExhausted", err)
	}
	if st := reg.Stats(); st.Plans != 1 || st.PerVault[0].Workspaces != 1 {
		t.Fatalf("plans %d, workspaces %d; want 1 and 1", st.Plans, st.PerVault[0].Workspaces)
	}
	reg.Close()
	for s := 0; s < sv.Shards(); s++ {
		if v := sv.Shard(s); v.Enclave.EPCUsed() != v.PersistentBytes() {
			t.Errorf("shard %d enclave holds %d EPC bytes after Close, want its %d deploy bytes", s, v.Enclave.EPCUsed(), v.PersistentBytes())
		}
	}
}

// TestRegistryLRUEviction pins the eviction order: with room for two
// resident vaults, admitting a third evicts the least recently served.
func TestRegistryLRUEviction(t *testing.T) {
	_, reg, ids := newFleet(t, 3, 2, Config{WorkspacesPerVault: 1})
	defer reg.Close()
	a, b, c := ids[0], ids[1], ids[2]

	serveOne(t, reg, a)
	serveOne(t, reg, b)
	serveOne(t, reg, c) // must evict a (LRU)

	st := reg.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	resident := map[string]bool{}
	for _, vs := range st.PerVault {
		resident[vs.ID] = vs.Resident
	}
	if resident[a] || !resident[b] || !resident[c] {
		t.Fatalf("residency after admitting %s: %v", c, resident)
	}

	serveOne(t, reg, a) // must evict b, now the LRU
	st = reg.Stats()
	for _, vs := range st.PerVault {
		if vs.ID == b && vs.Resident {
			t.Fatalf("%s still resident after LRU eviction", b)
		}
	}
	if st.Evictions != 2 || st.Plans != 4 {
		t.Fatalf("evictions/plans = %d/%d, want 2/4", st.Evictions, st.Plans)
	}
}

func TestRegistryAcquireBlocksUntilRelease(t *testing.T) {
	_, reg, ids := newFleet(t, 1, 1, Config{WorkspacesPerVault: 1})
	defer reg.Close()
	id := ids[0]

	_, ws, err := reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		_, ws2, err := reg.Acquire(id)
		if err != nil {
			t.Error(err)
		} else {
			reg.Release(id, ws2)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second acquire did not block at the workspace cap")
	default:
	}
	reg.Release(id, ws)
	<-acquired
}

// TestRegistryUnservableRequestFails covers the only legitimate failure:
// a workspace that cannot fit the EPC even with every other vault evicted.
func TestRegistryUnservableRequestFails(t *testing.T) {
	trained(t)
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = regPersist + regWSBytes/2 // persistent fits, workspace never
	encl := enclave.New(cost, regRec.Identity())
	v, err := core.DeployInto(encl, regBB, regRec, regDS.Graph)
	if err != nil {
		t.Fatal(err)
	}
	reg := New(encl, Config{})
	defer reg.Close()
	if err := reg.Register("big", v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Acquire("big"); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("unservable acquire: %v, want ErrEPCExhausted", err)
	}
}

// TestVaultUndeployFreesPersistentEPC: a served vault's Undeploy returns
// exactly its persistent EPC, is idempotent, and leaves it unplannable.
func TestVaultUndeployFreesPersistentEPC(t *testing.T) {
	encl, reg, ids := newFleet(t, 2, 4, Config{})
	defer reg.Close()
	id := ids[0]

	v, ws, err := reg.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(id, ws)
	reg.Close()
	before := encl.EPCUsed()
	v.Undeploy()
	v.Undeploy() // idempotent
	if got := encl.EPCUsed(); got != before-v.PersistentBytes() {
		t.Fatalf("Undeploy freed %d bytes, want %d", before-got, v.PersistentBytes())
	}
	if _, err := v.Plan(v.Nodes()); err == nil {
		t.Fatal("Plan on undeployed vault succeeded")
	}
}

func TestRegistryCloseRejectsAndDrains(t *testing.T) {
	encl, reg, ids := newFleet(t, 2, 4, Config{})
	baseline := int64(2) * regPersist

	serveOne(t, reg, ids[0])
	_, ws, err := reg.Acquire(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	reg.Close() // idempotent
	if _, _, err := reg.Acquire(ids[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v, want ErrClosed", err)
	}
	// The checked-out workspace still holds EPC until its holder releases.
	if got := encl.EPCUsed(); got != baseline+regWSBytes {
		t.Fatalf("EPC after close with one in-flight workspace: %d, want %d",
			got, baseline+regWSBytes)
	}
	reg.Release(ids[1], ws)
	if got := encl.EPCUsed(); got != baseline {
		t.Fatalf("EPC after drain %d, want deploy-time baseline %d", got, baseline)
	}
}

// TestRegistryHotPathAllocFree pins the scheduler's fast path: once a
// vault is resident, acquire→predict→release touches zero fresh heap.
// Kernels are pinned to one worker via the registry's own plan shape
// (goroutine spawns allocate), not the deprecated process-global knob.
func TestRegistryHotPathAllocFree(t *testing.T) {
	_, reg, ids := newFleet(t, 1, 2, Config{Plan: core.PlanConfig{Workers: 1}})
	defer reg.Close()
	id := ids[0]
	serveOne(t, reg, id) // warm-up: plan + first predict

	allocs := testing.AllocsPerRun(10, func() {
		v, ws, err := reg.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.PredictInto(regDS.X, ws); err != nil {
			t.Fatal(err)
		}
		reg.Release(id, ws)
	})
	if allocs > 0 {
		t.Fatalf("hot acquire/predict/release allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRegistryEvictionHammer is the -race regression test for the whole
// scheduler: concurrent clients hit more vaults than the EPC admits, so
// plans, evictions, and blocked admissions interleave constantly. The EPC
// must never exceed capacity and must return to the deploy-time baseline
// once the registry is closed and drained.
func TestRegistryEvictionHammer(t *testing.T) {
	const vaults, admit = 4, 2
	encl, reg, ids := newFleet(t, vaults, admit, Config{WorkspacesPerVault: 1})
	baseline := int64(vaults) * regPersist

	stop := make(chan struct{})
	var overCap atomic.Bool
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() { // capacity invariant, sampled while the hammer runs
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if encl.EPCUsed() > encl.EPCLimit() {
					overCap.Store(true)
					return
				}
			}
		}
	}()

	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < perClient; r++ {
				id := ids[rng.Intn(len(ids))]
				v, ws, err := reg.Acquire(id)
				if err != nil {
					errCh <- err
					return
				}
				_, _, err = v.PredictInto(regDS.X, ws)
				reg.Release(id, ws)
				if err != nil {
					errCh <- err
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(stop)
	monitor.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if overCap.Load() {
		t.Fatal("EPC usage exceeded capacity during the hammer")
	}

	st := reg.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("requests %d, want %d", st.Requests, clients*perClient)
	}
	if st.Plans <= uint64(admit) {
		t.Fatalf("plans %d: oversubscribed fleet should re-plan beyond the %d admitted", st.Plans, admit)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite oversubscription")
	}

	reg.Close()
	if got := encl.EPCUsed(); got != baseline {
		t.Fatalf("EPC after close %d, want baseline %d", got, baseline)
	}
	if used := encl.EPCUsed(); used > encl.EPCLimit() {
		t.Fatalf("ledger above capacity after close: %d > %d", used, encl.EPCLimit())
	}
}

// nodeQueryGeometry is the sampling geometry shared by the node-query
// tests and the sizing measurement below.
func nodeQueryGeometry() NodeQueryConfig {
	return NodeQueryConfig{Hops: 2, Fanout: 4, MaxSeeds: 4, Seed: 7}
}

// subPlanBytes measures the EPC one node-query workspace charges under
// nodeQueryGeometry, on a throwaway roomy deployment.
func subPlanBytes(t testing.TB) int64 {
	t.Helper()
	trained(t)
	v, err := core.Deploy(regBB, regRec, regDS.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer v.Undeploy()
	nq := nodeQueryGeometry()
	ws, err := v.PlanSubgraph(nq.MaxSeeds, nq.Subgraph())
	if err != nil {
		t.Fatalf("PlanSubgraph: %v", err)
	}
	defer ws.Release()
	return ws.EnclaveBytes()
}

func TestAcquireSubgraphServesNodeQueries(t *testing.T) {
	nq := nodeQueryGeometry()
	_, reg, ids := newFleet(t, 1, 2, Config{NodeQuery: &nq})
	defer reg.Close()
	if err := reg.EnableNodeQueries(ids[0], regDS.X); err != nil {
		t.Fatalf("EnableNodeQueries: %v", err)
	}
	v, ws, x, err := reg.AcquireSubgraph(ids[0])
	if err != nil {
		t.Fatalf("AcquireSubgraph: %v", err)
	}
	labels, _, err := v.PredictNodesInto(x, []int{3, 9}, ws)
	if err != nil {
		t.Fatalf("PredictNodesInto: %v", err)
	}
	if len(labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(labels))
	}
	reg.ReleaseSubgraph(ids[0], ws)

	st := reg.Stats()
	vs := st.PerVault[0]
	if vs.NodeWorkspaces != 1 || vs.NodeQueries != 1 {
		t.Fatalf("stats = %+v, want 1 node workspace and 1 node query", vs)
	}
	// A hot re-acquire must come from the cache: no second plan.
	plansBefore := reg.Stats().Plans
	_, ws2, _, err := reg.AcquireSubgraph(ids[0])
	if err != nil {
		t.Fatalf("hot AcquireSubgraph: %v", err)
	}
	reg.ReleaseSubgraph(ids[0], ws2)
	if got := reg.Stats().Plans; got != plansBefore {
		t.Fatalf("hot acquire planned again: %d -> %d", plansBefore, got)
	}
}

func TestAcquireSubgraphDisabled(t *testing.T) {
	// Registry without a NodeQuery config.
	_, reg, ids := newFleet(t, 1, 2, Config{})
	defer reg.Close()
	if err := reg.EnableNodeQueries(ids[0], regDS.X); !errors.Is(err, ErrNodeQueriesDisabled) {
		t.Fatalf("EnableNodeQueries without config: err = %v", err)
	}
	if _, _, _, err := reg.AcquireSubgraph(ids[0]); !errors.Is(err, ErrNodeQueriesDisabled) {
		t.Fatalf("AcquireSubgraph without config: err = %v", err)
	}
	reg.Close()

	// Registry with a config but a vault that never enabled node queries.
	nq := nodeQueryGeometry()
	_, reg2, ids2 := newFleet(t, 1, 2, Config{NodeQuery: &nq})
	defer reg2.Close()
	if _, _, _, err := reg2.AcquireSubgraph(ids2[0]); !errors.Is(err, ErrNodeQueriesDisabled) {
		t.Fatalf("AcquireSubgraph without features: err = %v", err)
	}
}

// TestSubgraphPlanAdmittedWhereFullPlanIsNot is the sizing point of the
// node-query pool: an EPC too small for the vault's full-graph workspace
// still admits the capped subgraph workspace, so node-level traffic keeps
// flowing where full-graph traffic is unservable.
func TestSubgraphPlanAdmittedWhereFullPlanIsNot(t *testing.T) {
	subBytes := subPlanBytes(t)
	if subBytes*2 >= regWSBytes {
		t.Fatalf("geometry broken: subgraph plan %d B not clearly below full plan %d B", subBytes, regWSBytes)
	}
	nq := nodeQueryGeometry()
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = regPersist + subBytes + subBytes/2 // room for sub, not for full
	encl := enclave.New(cost, regRec.Identity())
	reg := New(encl, Config{NodeQuery: &nq, WorkspacesPerVault: 1})
	defer reg.Close()
	v, err := core.DeployInto(encl, regBB, regRec, regDS.Graph)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := reg.Register("v0", v); err != nil {
		t.Fatal(err)
	}
	if err := reg.EnableNodeQueries("v0", regDS.X); err != nil {
		t.Fatal(err)
	}

	if _, _, err := reg.Acquire("v0"); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("full-graph Acquire: err = %v, want ErrEPCExhausted", err)
	}
	vv, ws, x, err := reg.AcquireSubgraph("v0")
	if err != nil {
		t.Fatalf("AcquireSubgraph in tight EPC: %v", err)
	}
	if _, _, err := vv.PredictNodesInto(x, []int{5}, ws); err != nil {
		t.Fatalf("PredictNodesInto: %v", err)
	}
	if used, limit := encl.EPCUsed(), encl.EPCLimit(); used > limit {
		t.Fatalf("EPC overcommitted: %d > %d", used, limit)
	}
	reg.ReleaseSubgraph("v0", ws)
}

// TestSubgraphAcquireEvictsIdleFullWorkspaces checks the pools share one
// eviction policy: admitting a node-query plan may evict another vault's
// cached full-graph workspace.
func TestSubgraphAcquireEvictsIdleFullWorkspaces(t *testing.T) {
	subBytes := subPlanBytes(t)
	nq := nodeQueryGeometry()
	cost := enclave.DefaultCostModel()
	// Fits both persistents plus one full workspace, but not +subgraph.
	cost.EPCBytes = 2*regPersist + regWSBytes + subBytes/2
	encl := enclave.New(cost, regRec.Identity())
	reg := New(encl, Config{NodeQuery: &nq, WorkspacesPerVault: 1})
	defer reg.Close()
	for _, id := range []string{"v0", "v1"} {
		v, err := core.DeployInto(encl, regBB, regRec, regDS.Graph)
		if err != nil {
			t.Fatalf("deploy %s: %v", id, err)
		}
		if err := reg.Register(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.EnableNodeQueries("v1", regDS.X); err != nil {
		t.Fatal(err)
	}

	serveOne(t, reg, "v0") // v0 now caches a full workspace
	_, ws, _, err := reg.AcquireSubgraph("v1")
	if err != nil {
		t.Fatalf("AcquireSubgraph under pressure: %v", err)
	}
	reg.ReleaseSubgraph("v1", ws)
	st := reg.Stats()
	if st.Evictions == 0 {
		t.Fatal("admitting the node-query plan evicted nothing; expected v0's cached workspace to go")
	}
	if used, limit := encl.EPCUsed(), encl.EPCLimit(); used > limit {
		t.Fatalf("EPC overcommitted: %d > %d", used, limit)
	}
}

// TestBudgetedPlansFlipEvictionChurn reproduces the EPC cliff the untiled
// registry pays — a fleet whose EPC admits only one untiled workspace
// plans/evicts on every vault switch — and shows a per-workspace EPC
// budget (tiled plans) admitting the whole fleet at once: every vault stays
// resident, and steady-state traffic causes no further plans or evictions.
func TestBudgetedPlansFlipEvictionChurn(t *testing.T) {
	const vaults = 4

	// Untiled control: EPC fits all persistent state + 1 workspace.
	_, reg, ids := newFleet(t, vaults, 1, Config{WorkspacesPerVault: 1})
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			serveOne(t, reg, id)
		}
	}
	churn := reg.Stats()
	if churn.Evictions == 0 {
		t.Fatal("untiled control fleet shows no eviction churn; the comparison is vacuous")
	}
	reg.Close()

	// Budgeted fleet on the *same* EPC geometry: tiled workspaces are a
	// fraction of regWSBytes, so all four vaults cache one and stay hot.
	budget := regWSBytes / 8
	_, reg, ids = newFleet(t, vaults, 1, Config{
		WorkspacesPerVault: 1,
		Plan:               core.PlanConfig{EPCBudgetBytes: budget},
	})
	defer reg.Close()
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			serveOne(t, reg, id)
		}
	}
	st := reg.Stats()
	if st.Evictions != 0 {
		t.Fatalf("budgeted fleet evicted %d times; tiled plans should all fit", st.Evictions)
	}
	if st.Plans != vaults {
		t.Fatalf("budgeted fleet planned %d times, want one cold plan per vault (%d)", st.Plans, vaults)
	}
	if st.Resident != vaults {
		t.Fatalf("budgeted fleet has %d resident vaults, want %d", st.Resident, vaults)
	}
	for _, vs := range st.PerVault {
		if vs.Workspaces != 1 {
			t.Fatalf("vault %s holds %d workspaces, want 1 cached", vs.ID, vs.Workspaces)
		}
	}
}

// TestAdmissionEvictsBeforeBuilding: a plan the enclave refuses has
// already compiled two programs and allocated two machines, so once a
// vault's workspace size is known the registry makes the room first.
// Three vaults round-robin through an enclave that admits two
// workspaces: every request from the third on plans and evicts exactly
// as before — same counts, same EPC at the end — but the enclave refuses
// an allocation only while sizes are still unknown, not once per plan.
func TestAdmissionEvictsBeforeBuilding(t *testing.T) {
	encl, reg, ids := newFleet(t, 3, 2, Config{WorkspacesPerVault: 1})
	defer reg.Close()
	const acquires = 100
	for i := 0; i < acquires; i++ {
		serveOne(t, reg, ids[i%len(ids)])
	}
	st := reg.Stats()
	if st.Plans != acquires || st.Evictions != acquires-2 {
		t.Fatalf("plans/evictions = %d/%d, want %d/%d", st.Plans, st.Evictions, acquires, acquires-2)
	}
	if want := int64(len(ids))*regPersist + 2*regWSBytes; st.EPCUsed != want {
		t.Fatalf("EPC used %d, want %d (every vault's persistent state and two workspaces)", st.EPCUsed, want)
	}
	if got := encl.Ledger().AllocFailures; got > len(ids) {
		t.Fatalf("enclave refused %d allocations over %d plans, want at most one per vault (%d)", got, st.Plans, len(ids))
	}
}

// TestAdmissionDoesNotBuildWhatCannotFit: with both admissible workspaces
// checked out and no idle vault left to evict, a third vault whose
// workspace size is known is refused without a build — the enclave sees
// no allocation attempt (AllocFailures flat), the plan function is never
// called, no plan is counted — and its Acquire waits for a release, after
// which it evicts and plans exactly as it always did: the same Plans,
// Evictions and EPC at the end. With nothing checked out the build is
// still attempted, so a size that was never learnt, or shrank, reaches
// the enclave.
func TestAdmissionDoesNotBuildWhatCannotFit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	encl, reg, ids := newFleet(t, 3, 2, Config{WorkspacesPerVault: 1})
	defer reg.Close()
	for _, id := range ids { // learn every size; v0 is evicted for v2
		serveOne(t, reg, id)
	}
	_, ws1, err := reg.Acquire(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	_, ws2, err := reg.Acquire(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	before, failures := reg.Stats(), encl.Ledger().AllocFailures
	if before.Plans != 3 || before.Evictions != 1 {
		t.Fatalf("plans/evictions = %d/%d after the warm-up, want 3/1", before.Plans, before.Evictions)
	}

	// The admission itself, both holders in place.
	reg.mu.Lock()
	e := reg.vaults[ids[0]]
	calls := 0
	err = reg.admitLocked(e, &e.wsBytes, &e.refused, func() (int64, error) {
		calls++
		return 0, enclave.ErrEPCExhausted
	})
	reg.mu.Unlock()
	if !errors.Is(err, enclave.ErrEPCExhausted) || calls != 0 {
		t.Fatalf("admission with every workspace held: err %v after %d plan calls, want ErrEPCExhausted after none", err, calls)
	}

	// Through Acquire: it waits, having built nothing.
	acquired := make(chan error, 1)
	go func() {
		_, ws, err := reg.Acquire(ids[0])
		if err == nil {
			reg.Release(ids[0], ws)
		}
		acquired <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // one processor: the waiter runs until it blocks
	}
	select {
	case err := <-acquired:
		t.Fatalf("acquire returned (%v) while both workspaces were held", err)
	default:
	}
	if st := reg.Stats(); st.Plans != before.Plans || st.Evictions != before.Evictions {
		t.Fatalf("plans/evictions moved to %d/%d while both workspaces were held", st.Plans, st.Evictions)
	}
	if got := encl.Ledger().AllocFailures; got != failures {
		t.Fatalf("enclave refused %d allocations while both workspaces were held, want 0", got-failures)
	}

	reg.Release(ids[1], ws1)
	if err := <-acquired; err != nil {
		t.Fatalf("acquire after a release: %v", err)
	}
	reg.Release(ids[2], ws2)
	st := reg.Stats()
	if st.Plans != before.Plans+1 || st.Evictions != before.Evictions+1 {
		t.Fatalf("plans/evictions = %d/%d, want %d/%d (v1 evicted for v0)", st.Plans, st.Evictions, before.Plans+1, before.Evictions+1)
	}
	if want := int64(len(ids))*regPersist + 2*regWSBytes; st.EPCUsed != want {
		t.Fatalf("EPC used %d, want %d", st.EPCUsed, want)
	}
	if got := encl.Ledger().AllocFailures; got != failures {
		t.Fatalf("enclave refused %d allocations after the release, want 0", got-failures)
	}

	// Nothing checked out: the build is attempted even though the
	// remembered size says it cannot fit (here: an absurd one).
	reg.mu.Lock()
	huge := encl.EPCFree() + regWSBytes*10
	err = reg.admitLocked(e, &huge, &e.refused, func() (int64, error) {
		calls++
		return 0, enclave.ErrEPCExhausted
	})
	reg.mu.Unlock()
	if !errors.Is(err, enclave.ErrEPCExhausted) || calls == 0 {
		t.Fatalf("admission with nothing held: err %v after %d plan calls, want the enclave's refusal after at least one", err, calls)
	}
}
