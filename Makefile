GO ?= go

.PHONY: all build test race vet fmt-check lint lint-sarif ci bench bench-json microbench trace-smoke \
	shard-smoke speedup-smoke impairments-smoke bench-baseline \
	bench-regression benchdiff sched-baseline sched-gate fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every Go file is gofmt-clean. The analyzers' testdata is exempt: those
# files are lint fixtures and keep the shape their findings were written for.
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/' || true); \
		if [ -n "$$out" ]; then echo "fmt-check: gofmt would change:"; echo "$$out"; exit 1; fi

# Enforce the determinism & persistence invariants (see README).
lint:
	$(GO) run ./cmd/pmnetlint ./...

# Same audit as `lint`, emitted as a SARIF 2.1.0 log (lint.sarif) for code
# scanners; the exit code still reflects findings, so `make lint` semantics
# are unchanged and this target fails the same way.
lint-sarif:
	$(GO) run ./cmd/pmnetlint -format sarif ./... > lint.sarif

# Everything CI runs, in the same order.
ci: build test race vet fmt-check lint trace-smoke shard-smoke speedup-smoke impairments-smoke \
	sched-gate

# Trace determinism smoke: the pinned scenario's chrome://tracing bytes must
# match the golden (same bytes TestTraceGoldenSmoke pins), and 8 concurrent
# identical runs must produce byte-identical traces (pmnetsim -parallel
# byte-compares them internally and fails loudly on divergence).
trace-smoke:
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 1 -requests 5 -seed 7 \
		-trace /tmp/pmnet_trace_smoke.json >/dev/null
	diff -q /tmp/pmnet_trace_smoke.json testdata/trace_smoke.json
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 1 -requests 5 -seed 7 \
		-trace /tmp/pmnet_trace_smoke.json -parallel 8 >/dev/null
	diff -q /tmp/pmnet_trace_smoke.json testdata/trace_smoke.json
	@echo "trace-smoke: golden match + 8-way parallel byte-identical"

# Hot-path micro-benchmarks (allocs/op must stay 0 — 1, the payload, for
# BenchmarkClientRoundtrip; 2 and 3 for BenchmarkEnginePut/Get, whose loops
# format their own key: the engines add 0 and 1, the returned value; see the
# pins in the matching alloc_test.go files). Override BENCHTIME=1x for a CI
# smoke run.
BENCHTIME ?= 1s
# The request path's per-hop benchmarks (device, server, client, and the KV
# engines in the root package's bench_test.go), shared by microbench and the
# sched-baseline/sched-gate pair.
PATHBENCH = BenchmarkUpdateHop|BenchmarkServerApply|BenchmarkClientRoundtrip|BenchmarkEnginePut|BenchmarkEngineGet
PATHPKGS = ./internal/dataplane ./internal/server ./internal/client .
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineSchedule|BenchmarkCancel|BenchmarkTransmit|BenchmarkPersistAll|BenchmarkPowerFail|BenchmarkNewDeviceRecycled|BenchmarkEpochOverhead|BenchmarkBarrier|BenchmarkRedisLPush|BenchmarkTwitterAction|$(PATHBENCH)' \
		-benchtime $(BENCHTIME) -benchmem ./internal/sim ./internal/netsim ./internal/pmem ./internal/sim/pdes \
		./internal/rediskv ./internal/workload $(PATHPKGS)

# Fuzz, one target after the other (go test takes one -fuzz target and one
# package at a time): the PM device against its two-image reference model
# (internal/pmem/model_test.go), the Redis-like store against the
# whole-value encoder it replaced (internal/rediskv/model_test.go), and the
# Redis handler on arbitrary requests against an in-memory model
# (internal/apps/model_test.go). Not part of `make ci`: `go test ./...`
# already replays the seeds; this searches past them. Minimizing each new
# input gets 2 s, not the default minute, so each target's 30 s go to fuzzing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDeviceMatchesTwoImageModel -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/pmem
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesModel -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/rediskv
	$(GO) test -run '^$$' -fuzz FuzzRedisHandler -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/apps

# Full experiment suite, cells on a GOMAXPROCS-sized worker pool.
bench:
	$(GO) run ./cmd/pmnetbench -run all -parallel 0

# Machine-readable form of the same run (schema pmnetbench/v1).
bench-json:
	$(GO) run ./cmd/pmnetbench -run all -parallel 0 -json

# Shard-count determinism smoke: every shard count ≥ 1 must render
# byte-identical output (DESIGN.md §10.4). Uses the "scale" experiment (pinned
# to Shards ≥ 1) so the check stays fast; CI diffs the full suite. The last
# pair adds cross-traffic, which plans one partition whatever -shards says, so
# there the default (-shards 0) must match too.
shard-smoke:
	$(GO) run ./cmd/pmnetbench -run scale -seed 1 -parallel 1 -shards 1 > /tmp/pmnet_shards1.txt
	$(GO) run ./cmd/pmnetbench -run scale -seed 1 -parallel 1 -shards 4 > /tmp/pmnet_shards4.txt
	diff -q /tmp/pmnet_shards1.txt /tmp/pmnet_shards4.txt
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 8 -requests 50 -seed 7 \
		-shards 1 -trace /tmp/pmnet_sim_shards1.json >/dev/null
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 8 -requests 50 -seed 7 \
		-shards 4 -trace /tmp/pmnet_sim_shards4.json >/dev/null
	diff -q /tmp/pmnet_sim_shards1.json /tmp/pmnet_sim_shards4.json
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 8 -requests 50 -seed 7 -cross-traffic 1 \
		-shards 0 -trace /tmp/pmnet_sim_cross0.json >/dev/null
	$(GO) run ./cmd/pmnetsim -workload ideal -clients 8 -requests 50 -seed 7 -cross-traffic 1 \
		-shards 4 -trace /tmp/pmnet_sim_cross4.json >/dev/null
	diff -q /tmp/pmnet_sim_cross0.json /tmp/pmnet_sim_cross4.json
	@echo "shard-smoke: shards 1 vs 4 byte-identical (tables + trace); cross-traffic shards 0 vs 4 too"

# Speedup-curve smoke: the "speedup" experiment runs one pinned scenario at
# shards 1, 2 and 4 and renders the per-shard virtual-time observables side
# by side — any divergence shows up as a loud MISMATCH row. The fresh JSON is
# then benchdiff-gated against the committed baseline (unmatched baseline
# cells are tolerated; the gate covers matched cells). The wall-clock curve
# itself is machine-relative: flat at cpus=1 is the shared worker budget
# working as designed, not a regression.
speedup-smoke:
	$(GO) run ./cmd/pmnetbench -run speedup -seed 1 -parallel 1 > /tmp/pmnet_speedup.txt
	@! grep -q MISMATCH /tmp/pmnet_speedup.txt || \
		{ echo "speedup-smoke: shard counts diverged:"; cat /tmp/pmnet_speedup.txt; exit 1; }
	$(GO) run ./cmd/pmnetbench -run speedup -seed 1 -parallel 1 -json > /tmp/pmnet_speedup.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json /tmp/pmnet_speedup.json
	@echo "speedup-smoke: shards 1/2/4 byte-identical observables; events/sec gated"

# Impairment-matrix smoke: the scenario × system scorecard must be
# byte-identical at -shards 1 and -shards 4 (every impairment draw comes from
# a per-link RNG stream owned by the sending partition), must keep
# its verdict spread — at least one "pmnet" win and the ack-starve "degrades"
# row, the cell the experiment exists to show — and its events/sec is
# benchdiff-gated against the committed baseline.
impairments-smoke:
	$(GO) run ./cmd/pmnetbench -run impairments -seed 1 -parallel 1 -shards 1 > /tmp/pmnet_impair1.txt
	$(GO) run ./cmd/pmnetbench -run impairments -seed 1 -parallel 1 -shards 4 > /tmp/pmnet_impair4.txt
	diff -q /tmp/pmnet_impair1.txt /tmp/pmnet_impair4.txt
	@grep -q 'pmnet *$$' /tmp/pmnet_impair1.txt || \
		{ echo "impairments-smoke: no winning scenario in matrix:"; cat /tmp/pmnet_impair1.txt; exit 1; }
	@grep -q 'degrades *$$' /tmp/pmnet_impair1.txt || \
		{ echo "impairments-smoke: no degrading scenario in matrix:"; cat /tmp/pmnet_impair1.txt; exit 1; }
	$(GO) run ./cmd/pmnetbench -run impairments -seed 1 -parallel 1 -json > /tmp/pmnet_impair.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json /tmp/pmnet_impair.json
	@echo "impairments-smoke: shards 1 vs 4 byte-identical; verdict spread held; events/sec gated"

# Regenerate the committed wall-clock baseline (run on a quiet machine, then
# commit the file so `make bench-regression` and CI have a reference point).
bench-baseline:
	$(GO) run ./cmd/pmnetbench -run all -seed 1 -parallel 0 -json > BENCH_baseline.json

# Compare two pmnetbench/v1 documents; exits 1 on a >15% events-per-second
# regression. Usage: make benchdiff OLD=BENCH_baseline.json NEW=bench.json
OLD ?= BENCH_baseline.json
NEW ?= /tmp/pmnet_bench_new.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Bench-regression gate: rerun the suite and compare events/sec against the
# committed baseline. Wall-clock numbers are machine-relative — refresh the
# baseline (make bench-baseline) when moving to different hardware.
bench-regression:
	$(GO) run ./cmd/pmnetbench -run all -seed 1 -parallel 0 -json > $(NEW)
	$(GO) run ./cmd/benchdiff BENCH_baseline.json $(NEW)

# Scheduler and update-path micro-benchmark gate. Fixed iteration counts (not
# -benchtime 1s) keep the measured loop identical between baseline and
# candidate, so ns/op is comparable even on a noisy single-core runner. The
# ns/op threshold is deliberately generous (40%) — the tight screw is
# allocs/op, which is deterministic and must not grow at all (benchdiff
# -gobench fails on any increase). Refresh the committed baseline with `make
# sched-baseline` after an intentional scheduler or update-path change or on
# new hardware.
SCHEDBENCHTIME ?= 300000x
SCHEDBENCH = BenchmarkEngineSchedule|BenchmarkCancel|$(PATHBENCH)
SCHEDPKGS = ./internal/sim $(PATHPKGS)
sched-baseline:
	$(GO) test -run '^$$' -bench '$(SCHEDBENCH)' \
		-benchtime $(SCHEDBENCHTIME) -benchmem $(SCHEDPKGS) | tee BENCH_sched_baseline.txt

sched-gate:
	$(GO) test -run '^$$' -bench '$(SCHEDBENCH)' \
		-benchtime $(SCHEDBENCHTIME) -benchmem $(SCHEDPKGS) > /tmp/pmnet_sched_new.txt
	$(GO) run ./cmd/benchdiff -gobench -threshold 40 BENCH_sched_baseline.txt /tmp/pmnet_sched_new.txt
