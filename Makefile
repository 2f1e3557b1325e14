# GNNVault build/verify/bench entry points. Everything is plain `go`
# underneath; the targets just fix the flags.

GO ?= go

.PHONY: build test race bench bench-json fuzz-smoke chaos-smoke vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The headline serving benchmarks (full-graph vs subgraph node queries,
# tiled vs untiled full-graph plans).
bench:
	$(GO) test -run '^$$' -bench 'SubgraphPredict|FullGraphNodeQuery|TiledFullGraph|VaultPredictInto|RegistryServe' -benchmem .

# The perf trajectory tracked across PRs, one JSON artifact per serving
# surface: BENCH_subgraph.json (node-query latency sweep),
# BENCH_attack.json (link-stealing AUC and extraction fidelity per
# serving defense, priced against throughput — checked against the
# committed ceilings in ci/attack_thresholds.json) and BENCH_shard.json
# (multi-enclave shard fleet: full-graph throughput, p99, and halo traffic
# vs shard count at a fixed per-shard EPC budget). The engine, the
# precision tiers, tiled vs untiled full-graph plans and registry serving
# under EPC pressure are tracked by `go run ./bench` (full_fp64,
# full_int8_tiled, vault_churn), not here — and so is the flight
# recorder's overhead: `go run ./bench -trace 1` reports
# obs.trace_overhead_share on every workload, which is the one
# measurement of it (CI's perf job runs it for all five).
# Override SIZES for bigger graphs, e.g. `make bench-json SIZES=100000,200000`.
SIZES ?= 20000,50000
bench-json:
	$(GO) run ./cmd/experiments -run ext-subgraph -epochs 3 -sizes $(SIZES) -bench-out BENCH_subgraph.json
	$(GO) run ./cmd/experiments -run ext-attack -epochs 30 -bench-out BENCH_attack.json -attack-check ci/attack_thresholds.json
	$(GO) run ./cmd/experiments -run ext-shard -epochs 3 -sizes $(SIZES) -bench-out BENCH_shard.json

# The chaos regression: seeded shard kills (ECALL-abort storms and
# enclave loss) under a concurrent /predict + /predict_nodes + /metrics
# client mix, plus the availability-flip race, all under the race
# detector — no deadlocks, counters reconcile, post-recovery answers
# stay bit-identical. Every full-graph pass, a single vault's included,
# fans out through exec.Fleet.RunShard's abort/unwind path, so the core
# tests of that path (deadline abort, idle abort, fault and recovery)
# run here too, three times each, and so does the registry's recovery of a
# lost fleet part under concurrent checkouts. A -run pattern that matches
# nothing passes silently, so the target counts the top-level tests that
# passed and fails below thirteen (3 serve + 3 core × 3 + 1 registry).
CHAOS_TESTS = TestShardedChaosHammer|TestSetShardAvailableMidPass|TestShardedBreakerTripAndRecover
CHAOS_CORE_TESTS = TestShardedPredictContextDeadline|TestShardedWorkspaceAbortIdleIsBenign|TestShardFaultRecoverBitIdentical
CHAOS_REGISTRY_TESTS = TestRegistryRecoverFleetPart
chaos-smoke:
	@out="$$( { $(GO) test -race -count=1 -v -run '^($(CHAOS_TESTS))$$' ./internal/serve/ || fail=1; \
		$(GO) test -race -count=3 -v -run '^($(CHAOS_CORE_TESTS))$$' ./internal/core/ || fail=1; \
		$(GO) test -race -count=1 -v -run '^($(CHAOS_REGISTRY_TESTS))$$' ./internal/registry/ || fail=1; \
		exit $${fail:-0}; } 2>&1)"; status=$$?; \
	echo "$$out" | grep -E '^(--- |ok|FAIL|panic|WARNING)' ; \
	n="$$(echo "$$out" | grep -c '^--- PASS: Test')"; \
	if [ $$status -ne 0 ] || [ "$$n" -lt 13 ]; then \
		echo "$$out" | tail -40; echo "chaos-smoke: exit $$status, $$n tests passed, want 13"; exit 1; \
	fi

# Short fuzz passes over the engine and attack-surface invariants:
# induced-subgraph extraction, tiled-vs-direct execution equivalence, int8
# accuracy + within-tier bit-identity, sharded-vs-single-enclave
# bit-identity across fuzzed shapes × shard counts × {fp64, int8}, bundle
# import under hostile manifests and under flipped, truncated or extended
# section bytes (an error, never a panic; a changed sealed section never
# imports), and the
# attack math (AUC/Fidelity in [0,1], no panics) under degenerate
# observation surfaces — plus the row-accumulate and requantise-row
# kernels (assembly vs the literal contracts, the row accumulate as
# one-row sparse ranges) and the fp64 and int8 product ranges (one kernel
# call per range, and per batch of a range, vs the per-row oracle) — and
# the HTTP predict endpoints under arbitrary request bodies (no panic, no
# status outside the API's table). This is the one list of fuzz targets,
# each Name:package: CI calls it twice, plain and as `make fuzz-smoke
# TAGS=purego`, which runs the same passes on the portable kernels. A
# -fuzz pattern that matches no target passes silently ("testing: warning:
# no fuzz tests to fuzz", exit 0), so the target fails on that warning.
FUZZTIME ?= 10s
TAGS ?=
FUZZ_TARGETS = \
	FuzzRowAccumulate:./internal/mat/ \
	FuzzRequantizeRow:./internal/mat/ \
	FuzzProductRangeF64:./internal/mat/ \
	FuzzProductRangeI8:./internal/mat/ \
	FuzzInducedSubgraph:./internal/subgraph/ \
	FuzzTiledExec:./internal/exec/ \
	FuzzPrecision:./internal/exec/ \
	FuzzShardedExec:./internal/exec/ \
	FuzzImport:./internal/core/ \
	FuzzBundleLoad:./internal/core/ \
	FuzzAttackSurface:./internal/attack/ \
	FuzzAPIRequest:./internal/serve/
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name="$${t%%:*}"; pkg="$${t#*:}"; \
		out="$$($(GO) test -tags '$(TAGS)' -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) "$$pkg" 2>&1)"; status=$$?; \
		echo "$$out"; \
		if [ $$status -ne 0 ]; then echo "fuzz-smoke: $$name in $$pkg failed"; exit 1; fi; \
		if echo "$$out" | grep -q 'no fuzz tests to fuzz'; then echo "fuzz-smoke: no fuzz target $$name in $$pkg"; exit 1; fi; \
	done
