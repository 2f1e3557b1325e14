// Package gnnvault is a from-scratch Go reproduction of "Graph in the
// Vault: Protecting Edge GNN Inference with Trusted Execution Environment"
// (DAC 2025): a partition-before-training deployment where a public GCN
// backbone trained on a feature-derived substitute graph runs in the
// untrusted world, and a small private rectifier holding the real
// adjacency runs inside a (simulated) SGX enclave.
//
// The implementation lives under internal/: mat (dense kernels), graph
// (sparse adjacency + generators, including a power-law generator for
// serving-scale graphs), nn (training: backprop layers + Adam, and the
// reference forward every planned answer is tested against), datasets
// (synthetic stand-ins for the paper's datasets), substitute (KNN / cosine
// / random substitute graphs), subgraph (L-hop frontier expansion and
// induced-CSR extraction for node-level minibatch serving), exec (the
// tiled streaming executor: forward passes of every conv kind — GCN,
// GraphSAGE, GAT — compiled to flat op programs with no opaque ops,
// epilogue-fused, and run direct or row-tile-streamed under a fixed EPC
// budget, on the one enclave thread an ECALL enters on, at fp64 or int8),
// core
// (backbone, rectifiers, vault deployment and allocation-free inference
// plans — full-graph and subgraph, untiled or EPC-budgeted), enclave
// (SGX software model), registry (EPC-aware scheduling of a multi-vault
// fleet on one enclave), serve (single-vault and fleet-routing batched
// serving with node-query coalescing), attack (link stealing), and
// experiments (one generator per paper table/figure).
//
// See README.md for a walkthrough, package map, serving ops guide, and
// the node-level serving section, and DESIGN.md for the system
// inventory, substitution rules, the registry's eviction policy, and the
// EPC accounting invariants of both workspace kinds. The root-level
// bench_test.go regenerates every paper table and figure via
// `go test -bench`, serve_bench_test.go measures the steady-state serving
// path, registry_bench_test.go sweeps the multi-vault fleet across the
// EPC cliff, subgraph_bench_test.go sweeps node-query latency against
// full-graph inference on growing power-law graphs, and
// tiled_bench_test.go prices tile-streamed full-graph plans under a
// 64 MB EPC budget against the untiled baseline.
package gnnvault
