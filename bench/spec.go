package main

import (
	"gnnvault/internal/core"
	"gnnvault/internal/registry"
)

// The benchmark's vocabulary: workload names, metric names, units and
// directions. BENCHMARK.json at the repository root restates this table
// for the driver; TestBenchmarkJSONMatchesSpec keeps the two in step.

// Clocks a metric can be read on. Host and modelled times are never
// added together.
const (
	clockRefHost  = "ref-host" // wall or CPU time ÷ the host-speed factor sampled around it (ref.go)
	clockHost     = "host"     // wall or CPU time of this process, as measured
	clockModelled = "modelled" // enclave.Ledger cost-model time
	clockCount    = "count"    // counted, not timed
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Clock  string
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move; for an end-to-end metric it is the
	// definition.
	Moves string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", clockRefHost, "median of repeated stack set-ups: deploy, register, calibrate, serve, first 200 on every endpoint the workload uses"},
	{"throughput_rps", "1/s", "higher", clockRefHost, "200-responses per second of busy time, median of five equal slices of the window"},
	{"latency_p50_ms", "ms", "lower", clockRefHost, "client-observed, send to body fully read"},
	{"latency_p95_ms", "ms", "lower", clockRefHost, "same; the highest percentile with at least ten samples beyond it when the window is short"},
	{"cpu_ms_per_req", "ms", "lower", clockRefHost, "getrusage user+sys over the window's rounds per completed request, generator included"},
	{"enclave_modelled_ms_per_req", "ms", "lower", clockModelled, "ledger transition+transfer+paging+compute over every enclave per completed request; the compute term is measured host time × slowdown and is read at reference-host speed"},
	{"boundary_kb_per_req", "KB", "lower", clockCount, "ledger BytesIn+BytesOut over every enclave per completed request"},
	{"peak_epc_mb", "MB", "lower", clockCount, "max over enclaves of EPC in use during the window"},
	{"label_agreement", "share", "higher", clockCount, "returned labels equal to the nn-path reference"},
	{"success_share", "share", "higher", clockCount, "200-responses per attempted request (1 - error share)"},
}

var perLayer = []metricSpec{
	{"mat.matmul_f64_ms", "ms", "lower", clockHost, "latency_p50_ms, cpu_ms_per_req on full_fp64; nothing on node_query"},
	{"mat.matmul_f64_gflops", "GFLOP/s", "higher", clockHost, "same as mat.matmul_f64_ms"},
	{"mat.matmul_i8_ms", "ms", "lower", clockHost, "latency_p50_ms on full_int8_tiled"},
	{"graph.spmm_f64_ms", "ms", "lower", clockHost, "latency_p50_ms, cpu_ms_per_req on full_fp64, fleet_full"},
	{"graph.spmm_f64_gbps", "GB/s", "higher", clockHost, "same as graph.spmm_f64_ms (computed bytes)"},
	{"graph.spmm_i8_ms", "ms", "lower", clockHost, "latency_p50_ms on full_int8_tiled"},
	{"graph.partition_ms", "ms", "lower", clockHost, "setup_s on fleet_full"},
	{"exec.run_ms", "ms", "lower", clockHost, "throughput_rps, latency_p50_ms on the full-graph workloads"},
	{"exec.ops", "count", "lower", clockCount, "exec.run_ms"},
	{"exec.spill_mb_per_run", "MB", "lower", clockCount, "boundary_kb_per_req on full_int8_tiled"},
	{"exec.halo_mb_per_run", "MB", "lower", clockCount, "boundary_kb_per_req on fleet_full"},
	{"exec.op_ms.matmul", "ms", "lower", clockHost, "latency_p50_ms on the full-graph workloads"},
	{"exec.op_ms.spmm", "ms", "lower", clockHost, "latency_p50_ms on the full-graph workloads"},
	{"exec.op_ms.halo", "ms", "lower", clockHost, "latency_p50_ms on fleet_full (barrier wait + gather)"},
	{"exec.op_ms.other", "ms", "lower", clockHost, "latency_p50_ms on the full-graph workloads"},
	{"exec.shard_busy_ms", "ms", "lower", clockHost, "enclave_modelled_ms_per_req on fleet_full"},
	{"exec.shard_wait_ms", "ms", "lower", clockHost, "latency_p50_ms, throughput_rps on fleet_full"},
	{"enclave.ecalls_per_req", "count", "lower", clockCount, "enclave_modelled_ms_per_req on every workload"},
	{"enclave.ocalls_per_req", "count", "lower", clockCount, "enclave_modelled_ms_per_req on every workload"},
	{"enclave.transition_ms_per_req", "ms", "lower", clockModelled, "enclave_modelled_ms_per_req on every workload"},
	{"enclave.transfer_ms_per_req", "ms", "lower", clockModelled, "enclave_modelled_ms_per_req, boundary_kb_per_req on every workload"},
	{"enclave.compute_ms_per_req", "ms", "lower", clockModelled, "enclave_modelled_ms_per_req on every workload"},
	{"enclave.paging_ms_per_req", "ms", "lower", clockModelled, "enclave_modelled_ms_per_req on every workload"},
	{"enclave.alloc_failures", "count", "lower", clockCount, "success_share on vault_churn"},
	{"subgraph.expand_ms", "ms", "lower", clockHost, "latency_p50_ms, throughput_rps on node_query"},
	{"subgraph.induce_ms", "ms", "lower", clockHost, "latency_p50_ms, throughput_rps on node_query"},
	{"subgraph.gather_ms", "ms", "lower", clockHost, "latency_p50_ms, throughput_rps on node_query"},
	{"subgraph.nodes_per_extract", "count", "lower", clockCount, "subgraph.*_ms"},
	{"subgraph.edges_per_extract", "count", "lower", clockCount, "subgraph.*_ms"},
	{"core.predict_ms", "ms", "lower", clockHost, "latency_p50_ms on every workload"},
	{"core.backbone_ms", "ms", "lower", clockHost, "latency_p50_ms on every workload (normal world)"},
	{"core.ecall_ms", "ms", "lower", clockHost, "latency_p50_ms on every workload (predict - backbone)"},
	{"core.plan_ms", "ms", "lower", clockHost, "throughput_rps on vault_churn; setup_s on all"},
	{"core.plan_sub_ms", "ms", "lower", clockHost, "setup_s on node_query"},
	{"core.plan_sharded_ms", "ms", "lower", clockHost, "setup_s on fleet_full"},
	{"core.deploy_ms", "ms", "lower", clockHost, "setup_s on all"},
	{"core.workspace_epc_mb", "MB", "lower", clockCount, "peak_epc_mb on all"},
	{"core.calibration_agreement", "share", "higher", clockCount, "label_agreement on full_int8_tiled"},
	{"registry.acquire_ms", "ms", "lower", clockHost, "throughput_rps, latency_p95_ms on vault_churn"},
	{"registry.plans_per_req", "count", "lower", clockCount, "throughput_rps on vault_churn"},
	{"registry.evictions_per_req", "count", "lower", clockCount, "throughput_rps on vault_churn"},
	{"registry.hit_share", "share", "higher", clockCount, "throughput_rps on vault_churn; ~1 on the single-vault workloads"},
	{"registry.epc_used_mb", "MB", "lower", clockCount, "peak_epc_mb on the registry workloads"},
	{"serve.api_ms", "ms", "lower", clockHost, "latency_p50_ms on every workload"},
	{"serve.dispatch_ms", "ms", "lower", clockHost, "latency_p50_ms, cpu_ms_per_req on node_query, vault_churn"},
	{"serve.http_ms", "ms", "lower", clockHost, "latency_p50_ms, cpu_ms_per_req on node_query"},
	{"serve.pool_p50_ms", "ms", "lower", clockHost, "cross-check of latency_p50_ms from serve.Stats"},
	{"serve.load_delay_ms", "ms", "lower", clockHost, "latency_p50_ms, throughput_rps on vault_churn (admission wait), full-graph workloads (core contention)"},
	{"serve.avg_batch", "count", "higher", clockCount, "none at two clients (reads 1.00)"},
	{"serve.resp_bytes", "B", "lower", clockCount, "serve.http_ms"},
	{"serve.fanout_p50_ms", "ms", "lower", clockHost, "latency_p50_ms on fleet_full"},
	{"serve.errors", "count", "lower", clockCount, "success_share on every workload"},
	{"nn.train_s", "s", "lower", clockHost, "fixture cost, outside setup_s"},
	{"datasets.generate_s", "s", "lower", clockHost, "fixture cost, outside setup_s"},
	{"obs.trace_overhead_share", "share", "lower", clockHost, "none; the price of arming the flight recorder"},
	{"host.speed_factor", "ratio", "lower", clockHost, "none; the median host-speed factor of the window: as-measured host time ÷ this = time at reference-host speed"},
	{"replay.requests", "count", "higher", clockCount, "none; sample count behind the replay medians"},
	{"replay.negative_self", "count", "lower", clockCount, "none; self times clamped at 0"},
	{"replay.closure_share", "share", "higher", clockCount, "none; sum of self times / request span at the median"},
}

// Layers a request's time is attributed to in the replay.
var layers = []string{"serve", "registry", "core", "subgraph", "exec", "mat", "graph"}

type workload struct {
	Name    string
	Why     string
	Fixture string // "pubmed20k" | "cora3"
	// NodeQuery selects POST /predict_nodes with 1..4 seeds per request;
	// nil selects POST /predict with nodesPerRequest drawn ids.
	NodeQuery *registry.NodeQueryConfig
	Plan      core.PlanConfig
	EPCMB     int64
	Shards    int // >1 serves through core.DeploySharded + serve.NewSharded
	// MinAgreement is the label_agreement floor the run must reach to be
	// correct; 0 records the figure without judging it.
	MinAgreement float64
	// Predicted is the expected share of latency_p50_ms per layer, written
	// down before measuring; the replay records the measured share next
	// to it.
	Predicted map[string]float64
}

// nodesPerRequest is how many stream-drawn node ids a /predict request
// asks labels for.
const nodesPerRequest = 64

var workloads = []workload{
	{
		Name:         "full_fp64",
		Why:          "untiled fp64 full-graph /predict on pubmed20k: exec+mat+graph direct kernels do over 90% of the work, serve/registry/subgraph almost none; the baseline for kernel claims",
		Fixture:      "pubmed20k",
		EPCMB:        96,
		MinAgreement: 1,
		Predicted:    map[string]float64{"serve": 0.03, "registry": 0, "core": 0, "subgraph": 0, "exec": 0.07, "mat": 0.6, "graph": 0.3},
	},
	{
		Name:         "full_int8_tiled",
		Why:          "same requests under an int8 4 MB-budget tiled plan: int8 kernels, boundary quantisation, tile streaming and spill; guards the tiled/int8 path against fp64-direct-only optimisations",
		Fixture:      "pubmed20k",
		Plan:         core.PlanConfig{Precision: core.PrecisionInt8, EPCBudgetBytes: 4 << 20},
		EPCMB:        96,
		MinAgreement: 0.99,
		Predicted:    map[string]float64{"serve": 0.03, "registry": 0, "core": 0, "subgraph": 0, "exec": 0.17, "mat": 0.5, "graph": 0.3},
	},
	{
		Name:      "node_query",
		Why:       "sub-2 ms /predict_nodes at hops 2, fanout 10, 1-4 seeds: HTTP+JSON, serve dispatch and subgraph extraction carry the request and kernels little; a kernel change must show nothing here",
		Fixture:   "pubmed20k",
		NodeQuery: &registry.NodeQueryConfig{Hops: 2, Fanout: 10, MaxSeeds: 16, Seed: 1},
		EPCMB:     96,
		Predicted: map[string]float64{"serve": 0.45, "registry": 0.01, "core": 0.04, "subgraph": 0.2, "exec": 0.15, "mat": 0.1, "graph": 0.05},
	},
	{
		Name:         "vault_churn",
		Why:          "/predict round-robin over three cora vaults in a 6 MB enclave: one or two workspaces fit, so most requests plan and evict through registry.Acquire; a plan-cost or admission change shows only here",
		Fixture:      "cora3",
		EPCMB:        6,
		MinAgreement: 1,
		Predicted:    map[string]float64{"serve": 0.1, "registry": 0.05, "core": 0.5, "subgraph": 0, "exec": 0.05, "mat": 0.25, "graph": 0.05},
	},
	{
		Name:         "fleet_full",
		Why:          "full-graph /predict through a 4-shard fleet: exec.Fleet barriers and halo copies, four ECALLs per request, thread-CPU billing; the sharded server's only coverage",
		Fixture:      "pubmed20k",
		EPCMB:        96,
		Shards:       4,
		MinAgreement: 1,
		Predicted:    map[string]float64{"serve": 0.03, "registry": 0, "core": 0, "subgraph": 0, "exec": 0.27, "mat": 0.45, "graph": 0.25},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
