#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmark set and record it in
# BENCH_sim.json under a label (default "current").
#
#   scripts/bench.sh            # quick: 1 iteration of each figure bench
#   scripts/bench.sh pr2        # record under the "pr2" label
#   BENCHTIME=3x scripts/bench.sh pr2   # more iterations, steadier ns/op
#
# The set covers the two figure benchmarks the ROADMAP tracks (Fig4, Fig9),
# the raw simulator-throughput benchmark, and the engine micro-benchmarks
# (which must stay at 0 allocs/op).
# Numbers land in BENCH_sim.json next to the labels recorded by earlier
# PRs, so the perf trajectory is diffable.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-current}"
BENCHTIME="${BENCHTIME:-1x}"

{
  go test -run '^$' -bench 'BenchmarkFig4$|BenchmarkFig9$|BenchmarkSimulationThroughput$' \
    -benchmem -benchtime "$BENCHTIME" -timeout 30m .
  go test -run '^$' -bench 'BenchmarkSchedule|BenchmarkEngineMixed' \
    -benchmem -benchtime 1s ./internal/sim
} | go run ./scripts/benchjson -label "$LABEL" -out BENCH_sim.json
