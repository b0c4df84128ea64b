GO ?= go

.PHONY: all build test race vet fmt-check lint lint-sarif ci bench bench-json microbench \
	bench-baseline benchdiff fuzz loc

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

# Enforce the determinism invariants and bounded data-plane work (see README).
lint:
	$(GO) run ./cmd/pmnetlint ./...

# Same audit as `lint`, emitted as a SARIF 2.1.0 log (lint.sarif) for code
# scanners; the exit code still reflects findings, so `make lint` semantics
# are unchanged and this target fails the same way.
lint-sarif:
	$(GO) run ./cmd/pmnetlint -format sarif ./... > lint.sarif

# The gate: nothing here can go red without a code change. Byte-identity
# across -shards/-parallel, the trace golden, the impairment verdict spread,
# exact allocs/op and docs_results.txt are all `go test`; wall-clock numbers
# (microbench, bench-json, bench-baseline) are reported, never gated — on a
# shared host one commit reads further apart than any threshold worth having.
ci: build test race vet fmt-check lint

# Hot-path micro-benchmarks (allocs/op must stay 0 — 1, the payload, for
# BenchmarkClientRoundtrip; 2 and 3 for BenchmarkEnginePut/Get, whose loops
# format their own key: the engines add 0 and 1, the returned value; see the
# pins in the matching alloc_test.go files; BenchmarkTransmit also selects
# BenchmarkTransmitECMP; BenchmarkTimerAt is BenchmarkEngineSchedule on
# caller-owned sim.Timers). BenchmarkCommit is one Put-sized pmobj transaction
# and BenchmarkBTreePrefill the kv_mixed prefill (100 000 keys into a fresh
# 128 MB arena), the set-up path. Override BENCHTIME=1x for a CI smoke run.
BENCHTIME ?= 1s
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineSchedule|BenchmarkTimerAt|BenchmarkRunThroughWindowed|BenchmarkCancel|BenchmarkTransmit|BenchmarkNewDeviceRecycled|BenchmarkCommit|BenchmarkBTreePrefill|BenchmarkEpochOverhead|BenchmarkBarrier|BenchmarkRedisLPush|BenchmarkTwitterAction|BenchmarkUpdateHop|BenchmarkServerApply|BenchmarkClientRoundtrip|BenchmarkEnginePut|BenchmarkEngineGet' \
		-benchtime $(BENCHTIME) -benchmem ./internal/sim ./internal/netsim ./internal/pmem ./internal/pmobj ./internal/kv \
		./internal/sim/pdes ./internal/rediskv ./internal/workload ./internal/dataplane ./internal/server ./internal/client .

# Fuzz, one target after the other (go test takes one -fuzz target and one
# package at a time): the PM device against a plain byte slice with counters
# (internal/pmem/model_test.go), the Redis-like store against the
# whole-value encoder it replaced (internal/rediskv/model_test.go), the
# Redis handler on arbitrary requests against an in-memory model
# (internal/apps/model_test.go), the timer wheel on arbitrary schedules
# against the O(n²) reference scheduler (internal/sim/wheel_test.go), and the
# read cache against the string-keyed map and LRU list it replaced
# (internal/dataplane/cache_model_test.go). Not
# part of `make ci`: `go test ./...`
# already replays the seeds; this searches past them. Minimizing each new
# input gets 2 s, not the default minute, so each target's 30 s go to fuzzing.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDeviceMatchesBytes -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/pmem
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesModel -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/rediskv
	$(GO) test -run '^$$' -fuzz FuzzRedisHandler -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/apps
	$(GO) test -run '^$$' -fuzz FuzzWheelMatchesReference -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzCacheMatchesModel -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 2s ./internal/dataplane

# Full experiment suite, cells on a GOMAXPROCS-sized worker pool.
bench:
	$(GO) run ./cmd/pmnetbench -run all -parallel 0

# Machine-readable form of the same run (schema pmnetbench/v1).
bench-json:
	$(GO) run ./cmd/pmnetbench -run all -parallel 0 -json

# Record the committed wall-clock reference (on a quiet machine; the doc
# carries its `cpus`). A trajectory to read with benchdiff, not a gate.
bench-baseline:
	$(GO) run ./cmd/pmnetbench -run all -seed 1 -parallel 0 -json > BENCH_baseline.json

# Report the wall-clock delta between two pmnetbench/v1 documents (exit 1 past
# a 15% events-per-second drop; it says so and skips that when their `cpus`
# differ). Usage: make benchdiff OLD=BENCH_baseline.json NEW=bench.json
OLD ?= BENCH_baseline.json
NEW ?= /tmp/pmnet_bench_new.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# The size the quality aim is judged by: non-blank, non-comment lines of
# non-test Go outside bench/ and testdata/, per package directory with its
# files beneath, and in total. A report, not part of `make ci`.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -printf '%h %p\n' \
		| LC_ALL=C sort | cut -d' ' -f2 | xargs awk ' \
		FNR == 1 { file[++nf] = FILENAME; d = FILENAME; sub(/\/[^\/]*$$/, "", d); \
			if (d != dir[nd]) dir[++nd] = d; of[nf] = nd } \
		!/^[ \t]*($$|\/\/)/ { perfile[nf]++; perdir[nd]++; total++ } \
		END { for (i = 1; i <= nd; i++) { printf "%6d %s\n", perdir[i], dir[i]; \
			for (j = 1; j <= nf; j++) if (of[j] == i) printf "%12d %s\n", perfile[j], file[j] } \
			printf "%6d total\n", total }'
