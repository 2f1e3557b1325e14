package main

import (
	"fmt"
	"math/rand"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
	"gnnvault/internal/graph"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/subgraph"
)

// probe is a bench-owned deployment of the workload's models that the
// replay calls into directly, below serve: registry.Acquire → core
// PredictInto/PredictNodesInto → Release, or ShardedVault.PredictInto on
// the fleet. Its plans record into the program's own flight recorder
// (ring), whose spans the replay folds under its bench-side spans.
type probe struct {
	*deployment
	w    *workload
	fx   *fixture
	ring *obs.Ring

	sws *core.ShardedWorkspace // fleet only

	// Sibling subgraph probe state (node-query workload only): the
	// bench's own extraction over the public substitute adjacency with
	// the served sampler geometry.
	subAdj  *graph.NormAdjacency
	subWS   *subgraph.Workspace
	subCS   *subgraph.CSRSpace
	subFeat *mat.Matrix
	subView mat.Matrix
}

func newProbe(w *workload, fx *fixture) (*probe, error) {
	p := &probe{w: w, fx: fx, ring: obs.NewRing(4096)}
	var err error
	if p.deployment, err = deploy(w, fx, p.ring); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if p.sv != nil {
		if err := p.planSharded(); err != nil {
			p.close()
			return nil, err
		}
	}
	if nq := w.NodeQuery; nq != nil {
		p.subAdj = graph.Normalize(fx.Models[0].BB.SubGraph)
		plan := subgraph.NewPlan(nq.Subgraph(), nq.MaxSeeds, fx.DS.X.Rows)
		p.subWS = plan.NewWorkspace()
		p.subCS = plan.NewCSRSpace(p.subAdj.NNZ())
		p.subFeat = mat.New(plan.CapNodes, fx.DS.X.Cols)
	}
	return p, nil
}

// planSharded (re)plans the fleet workspace the probe predicts on.
func (p *probe) planSharded() error {
	if p.sws != nil {
		p.sws.Release()
	}
	plan := p.w.Plan
	plan.Recorder = p.ring
	var err error
	if p.sws, err = p.sv.PlanSharded(p.fx.DS.X.Rows, plan); err != nil {
		return fmt.Errorf("probe sharded plan: %w", err)
	}
	return nil
}

func (p *probe) close() {
	if p.sws != nil {
		p.sws.Release()
	}
	p.deployment.close()
}

// probeSample is one request executed at the core depth.
type probeSample struct {
	Labels     []int
	AcquireNs  int64 // registry Acquire + Release wall, incl. any plan/evict
	PredictNs  int64
	BackboneNs int64 // InferenceBreakdown.BackboneTime (host, normal world)
	// RingT0 is the flight recorder's clock just before Acquire, RingT1
	// just before the predict call; Spans are the spans recorded since
	// RingT0.
	RingT0, RingT1 int64
	Spans          []obs.Span
	// ShardBusyNs is the mean per-shard in-enclave busy time (ledger
	// compute ÷ slowdown); fleet only.
	ShardBusyNs int64

	ExpandNs, InduceNs, GatherNs int64
	SubNodes, SubEdges           int
}

// run executes r below serve and returns what it took.
func (p *probe) run(r *request) (probeSample, error) {
	var s probeSample
	x := p.fx.DS.X
	s.RingT0 = p.ring.Clock()
	switch {
	case p.sv != nil:
		before := make([]int64, p.sv.Shards())
		for i := range before {
			before[i] = p.sv.Shard(i).Enclave.Ledger().ComputeNs
		}
		s.RingT1 = p.ring.Clock()
		t0 := time.Now()
		labels, bd, err := p.sv.PredictInto(x, p.sws)
		s.PredictNs = time.Since(t0).Nanoseconds()
		if err != nil {
			return s, err
		}
		s.BackboneNs = bd.BackboneTime.Nanoseconds()
		var busy int64
		for i := range before {
			busy += p.sv.Shard(i).Enclave.Ledger().ComputeNs - before[i]
		}
		s.ShardBusyNs = int64(float64(busy) / enclave.DefaultCostModel().ComputeSlowdown / float64(len(before)))
		s.Labels = pick(labels, r.Nodes)
	case p.w.NodeQuery != nil:
		t0 := time.Now()
		v, ws, feats, err := p.reg.AcquireSubgraph(r.Vault)
		if err != nil {
			return s, err
		}
		s.RingT1 = p.ring.Clock()
		t1 := time.Now()
		labels, bd, err := v.PredictNodesInto(feats, r.Nodes, ws)
		t2 := time.Now()
		if err == nil {
			s.Labels = append([]int(nil), labels...)
		}
		p.reg.ReleaseSubgraph(r.Vault, ws)
		s.AcquireNs = (t1.Sub(t0) + time.Since(t2)).Nanoseconds()
		if err != nil {
			return s, err
		}
		s.PredictNs, s.BackboneNs = t2.Sub(t1).Nanoseconds(), bd.BackboneTime.Nanoseconds()
		if err := p.extract(r.Nodes, &s); err != nil {
			return s, err
		}
	default:
		t0 := time.Now()
		v, ws, err := p.reg.Acquire(r.Vault)
		if err != nil {
			return s, err
		}
		s.RingT1 = p.ring.Clock()
		t1 := time.Now()
		labels, bd, err := v.PredictInto(x, ws)
		t2 := time.Now()
		if err == nil {
			s.Labels = pick(labels, r.Nodes)
		}
		p.reg.Release(r.Vault, ws)
		s.AcquireNs = (t1.Sub(t0) + time.Since(t2)).Nanoseconds()
		if err != nil {
			return s, err
		}
		s.PredictNs, s.BackboneNs = t2.Sub(t1).Nanoseconds(), bd.BackboneTime.Nanoseconds()
	}
	// One request records at most a few dozen spans (the fleet: 2 stages,
	// 4 ECALLs, 4 × ~10 ops).
	for _, sp := range p.ring.Last(128) {
		if sp.Start >= s.RingT0 {
			s.Spans = append(s.Spans, sp)
		}
	}
	return s, nil
}

// extract times the three subgraph stages on the bench's own workspace,
// for the same seeds and sampler the served path uses.
func (p *probe) extract(seeds []int, s *probeSample) error {
	t0 := time.Now()
	cnt, err := p.subWS.Expand(p.subAdj, seeds)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sub, err := p.subWS.Induce(p.subAdj, p.subCS)
	if err != nil {
		return err
	}
	t2 := time.Now()
	view := p.subFeat.ViewRows(0, cnt, &p.subView)
	subgraph.GatherRowsInto(view, p.fx.DS.X, p.subWS.Nodes())
	t3 := time.Now()
	s.ExpandNs, s.InduceNs, s.GatherNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t3.Sub(t2).Nanoseconds()
	s.SubNodes, s.SubEdges = cnt, sub.NNZ()
	return nil
}

// pick copies the labels of the selected nodes (all when none named).
func pick(labels, nodes []int) []int {
	if len(nodes) == 0 {
		return append([]int(nil), labels...)
	}
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = labels[n]
	}
	return out
}

// timeMedian runs fn at least min times and until budget has passed, and
// returns the median duration in ms.
func timeMedian(min int, budget time.Duration, fn func()) float64 {
	var ms []float64
	start := time.Now()
	for len(ms) < min || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		if len(ms) >= 200 {
			break
		}
	}
	return median(ms)
}

const probeBudget = 150 * time.Millisecond

// seriesModel returns the fixture's series-design model: the one whose
// rectifier is a plain GCN chain the bench can rebuild op by op.
func seriesModel(fx *fixture) *model {
	for _, m := range fx.Models {
		if m.Rec.Design == core.Series {
			return m
		}
	}
	return fx.Models[0]
}

// kernelProbes times exported mat and graph kernels on the workload's own
// shapes: the backbone's first product (N×F · F×H over the real, sparse
// feature matrix) and the rectifier's first aggregation over the private
// CSR, in fp64 and int8.
func kernelProbes(w *workload, fx *fixture, out map[string]float64) {
	m := seriesModel(fx)
	rng := rand.New(rand.NewSource(deploySeed))
	x := fx.DS.X
	n, f, h := x.Rows, x.Cols, m.BB.Spec.BackboneHidden[0]
	wt := mat.Glorot(rng, f, h)
	dst := mat.New(n, h)
	ms := timeMedian(5, probeBudget, func() { mat.MatMulInto(dst, x, wt) })
	out["mat.matmul_f64_ms"] = ms
	out["mat.matmul_f64_gflops"] = 2 * float64(n) * float64(f) * float64(h) / (ms * 1e6)

	xMax := make([]float64, f)
	x.ColMaxAbsInto(xMax)
	xScales := make([]float64, f)
	for j, mx := range xMax {
		xScales[j] = mat.SymmetricScale(mx)
	}
	x8 := mat.NewI8(n, f)
	mat.QuantizeColumnsI8Into(x8, x, xScales)
	w8, deq := mat.QuantizeColumnsI8(wt)
	dst8 := mat.NewI8(n, h)
	ones := make([]float64, h)
	for j := range ones {
		ones[j] = 1
	}
	acc := make([]int32, h)
	out["mat.matmul_i8_ms"] = timeMedian(5, probeBudget, func() {
		mat.MatMulI8EpilogueInto(dst8, x8, w8, deq, nil, nil, nil, false, ones, acc, nil)
	})

	adj := m.Rec.Adjacency()
	d := m.Rec.Dims[0]
	hd := mat.RandNormal(rng, n, d, 0, 1)
	bias := make([]float64, d)
	agg := mat.New(n, d)
	ms = timeMedian(5, probeBudget, func() { adj.MulDenseBiasReLUInto(agg, hd, bias, nil, true, 1) })
	out["graph.spmm_f64_ms"] = ms
	// Computed bytes: one d-wide row gathered per stored edge, one
	// written per node.
	out["graph.spmm_f64_gbps"] = float64(adj.NNZ()+n) * float64(d) * 8 / (ms * 1e6)

	hd8 := mat.NewI8(n, d)
	mat.QuantizeI8Into(hd8, hd, mat.SymmetricScale(hd.MaxAbs()))
	agg8 := mat.NewI8(n, d)
	dOnes, dAcc := ones, acc
	if d > h {
		dOnes, dAcc = make([]float64, d), make([]int32, d)
		for j := range dOnes {
			dOnes[j] = 1
		}
	}
	valScale := mat.SymmetricScale(adj.ValMaxAbs())
	out["graph.spmm_i8_ms"] = timeMedian(5, probeBudget, func() {
		adj.MulDenseI8EpilogueRangeInto(agg8, hd8, 0, n, valScale, dOnes[:d], bias, nil, nil, true, dOnes[:d], dAcc[:d], nil)
	})

	if w.Shards > 1 {
		out["graph.partition_ms"] = timeMedian(3, probeBudget, func() { graph.NewPartition(adj, w.Shards) })
	}
}

// planProbes times deploy and plan calls on a dedicated default-EPC
// deployment (so they never disturb a registry's admission state), reads
// the planned workspace's EPC charge and tile height, and then times
// Machine.Run on a bench-built GCN program: the series rectifier's op
// sequence through exec.NewBuilder at the workload's element type and
// tile height.
func planProbes(w *workload, fx *fixture, out map[string]float64) error {
	m := seriesModel(fx)
	x := fx.DS.X
	rows := x.Rows
	cost := enclave.DefaultCostModel()

	var v *core.Vault
	var err error
	out["core.deploy_ms"] = timeMedian(3, 0, func() {
		if v != nil {
			v.Undeploy()
		}
		v, err = core.Deploy(m.BB, m.Rec, fx.DS.Graph, cost)
	})
	if err != nil {
		return fmt.Errorf("probe deploy: %w", err)
	}
	defer v.Undeploy()
	if err := v.SetCalibrationFeatures(x); err != nil {
		return err
	}

	var ws *core.Workspace
	out["core.plan_ms"] = timeMedian(3, probeBudget, func() {
		if ws != nil {
			ws.Release()
		}
		ws, err = v.PlanWith(rows, w.Plan)
	})
	if err != nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	defer ws.Release()
	out["core.workspace_epc_mb"] = float64(ws.EnclaveBytes()) / (1 << 20)
	tileRows := ws.TileRows()

	out["core.calibration_agreement"] = 1
	if w.Plan.Precision != core.PrecisionFP64 {
		ref, err := v.PlanWith(rows, core.PlanConfig{})
		if err != nil {
			return fmt.Errorf("probe fp64 plan: %w", err)
		}
		defer ref.Release()
		want, _, err := v.PredictInto(x, ref)
		if err != nil {
			return err
		}
		got, _, err := v.PredictInto(x, ws)
		if err != nil {
			return err
		}
		eq, tot, _ := agreement(want, nil, got)
		out["core.calibration_agreement"] = float64(eq) / float64(tot)
	}

	if nq := w.NodeQuery; nq != nil {
		var sws *core.SubgraphWorkspace
		out["core.plan_sub_ms"] = timeMedian(3, probeBudget, func() {
			if sws != nil {
				sws.Release()
			}
			sws, err = v.PlanSubgraphWith(nq.MaxSeeds, nq.Subgraph(), w.Plan)
		})
		if err != nil {
			return fmt.Errorf("probe subgraph plan: %w", err)
		}
		sws.Release()
	}

	// The bench-built program.
	need := m.Rec.RequiredEmbeddings()
	emb := m.BB.Embeddings(x)[need[0]]
	bld := exec.NewBuilder(rows)
	val := bld.Input(emb.Cols)
	params := m.Rec.Params() // (W, b) per conv
	for k := 0; k+1 < len(params); k += 2 {
		val = bld.MatMul(val, params[k].W)
		val = bld.SpMM(m.Rec.Adjacency(), val)
		val = bld.AddBias(val, params[k+1].W.Data)
		if k+2 < len(params) {
			val = bld.ReLU(val)
		}
	}
	bld.Argmax(val)
	prog := bld.Build().Fused()
	inputs := []*mat.Matrix{emb}
	cfg := exec.Config{Workers: 1, Elem: w.Plan.Precision.Elem(), TileRows: tileRows}
	if cfg.Elem == exec.I8 {
		if cfg.Scales, _, err = exec.CalibrateScales(prog, rows, inputs); err != nil {
			return fmt.Errorf("probe calibrate: %w", err)
		}
	}
	mach, err := prog.NewMachine(cfg)
	if err != nil {
		return fmt.Errorf("probe machine: %w", err)
	}
	labels := make([]int, rows)
	out["exec.run_ms"] = timeMedian(5, probeBudget, func() { mach.Run(rows, inputs, labels) })
	out["exec.ops"] = float64(len(prog.Ops()))
	out["exec.spill_mb_per_run"] = float64(mach.SpillTraffic(rows)) / 1e6
	if eq, tot, _ := agreement(m.Ref, nil, labels); float64(eq) < w.MinAgreement*float64(tot) {
		return fmt.Errorf("bench-built exec program agrees with the reference on %d of %d labels", eq, tot)
	}
	return nil
}
