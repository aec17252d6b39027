#!/bin/sh
# CI perf-regression gate: re-run the gated benchmarks (Table5,
# MovePack, MoveOverlap, ScheduleRepair) and compare against a committed BENCH_<date>.json
# snapshot via cmd/benchdiff.  Fails on more than 10% ns/op growth or
# allocs/op growth beyond runtime jitter (one per million) on a gated
# benchmark.
#
# The benchmarks run at -cpu 1, the host shape the committed baselines
# were recorded at: with one CPU the 256-rank ScheduleRepair worlds stay
# on one scheduler shard, so allocs/op are deterministic.
# ScheduleRepair/repair times NewScheduleFromRoutes (one rank's schedule
# assembled from a route map); /rebuild the collective inspector.
#
# Usage:
#   scripts/benchdiff.sh                        # newest BENCH_*.json
#   scripts/benchdiff.sh BENCH_2026-08-06.json  # explicit baseline
#   BENCH_COUNT=5 scripts/benchdiff.sh          # more repeats, less noise
set -eu
cd "$(dirname "$0")/.."

filter='Table5|MovePack|MoveOverlap|ScheduleRepair'
count="${BENCH_COUNT:-3}"
if [ $# -gt 0 ]; then
	baseline="$1"
else
	baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
fi
if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
	echo "benchdiff: no BENCH_*.json baseline found (record one with scripts/bench.sh)" >&2
	exit 2
fi
echo "benchdiff: baseline $baseline, count $count" >&2
go test -run '^$' -bench "$filter" -benchmem -cpu 1 -count "$count" . |
	go run ./cmd/benchdiff -baseline "$baseline" -filter "$filter" -
