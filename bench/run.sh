#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into bench/out/.build inside the checkout, then run it with the
# arguments given. Everything the build writes — the binary, the go build
# cache, its scratch directory, the go tool's own counters — stays there, so
# bench/out/ is all this benchmark ever leaves behind (the leading dot keeps
# the go tool's ./... from walking the cache). Started anywhere but the root
# of a full checkout, the build fails and so does this.
#
# The go tool's telemetry is switched off in that private config directory
# first: in its default "local" mode the first go command of the day forks a
# detached child that outlives the build, and the benchmark must leave no
# process behind.
set -euo pipefail
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/pmnet-bench" ./bench
exec "$build/pmnet-bench" "$@"
