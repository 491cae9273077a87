#!/usr/bin/env bash
# bench_pr10.sh — record the out-of-core CSR trajectory.
#
# Emits BENCH_PR10.json at the repo root. Three stories in one document:
#
#   * BenchmarkLubyPackedFile rows are the headline: the packed 1-bit Luby
#     program executing over the read-only mmap-backed on-disk CSR graph
#     (what `locsim -graphfile` runs). Each row's baseline_* fields are THIS
#     run's sequential BenchmarkLubyPacked row for the same n, so the
#     ns_reduction_pct reads as "what the mapping costs over the in-RAM CSR
#     warm on this machine". Acceptance: the n=2^20 row's overhead must stay
#     within 10%.
#   * BenchmarkStreamBuild documents the out-of-core construction path: one
#     op is a complete n=2^20 streaming build (generator → one scatter
#     pass → per-row sort/dedup → rev/checksum). Its heapB/node metric is
#     the O(n) peak-RAM story in numbers — the edge stream (~17MB here) lives on
#     disk, and the heap carries only per-node counters and fixed buffers.
#     (The hard not-O(m) proof is TestStreamingBuildHeapON's allocation
#     assertion; this row records the absolute costs.)
#   * The engine rows (BenchmarkRun / RunStaggered / RunParallel /
#     RunParallelStaggered / Luby / LubyPacked / RunParallelLubyPacked)
#     carry their BENCH_PR9.json baselines to keep the trend honest — this
#     PR does not touch the engines, so these rows must hold steady.
#
# Usage: scripts/bench_pr10.sh [benchtime]   (default 2x, matching the
#                                             BENCH_PR9.json recording)
# Env:   BENCH_COUNT  runs per benchmark; the min is recorded (default 3,
#                     stripping shared-machine noise like the CI gate does)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/bench_lib.sh

BENCHTIME="${1:-2x}"
export BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_PR10.json"

RAW="$(run_benchmarks_isolated "$BENCHTIME" \
	'BenchmarkRun$/^n=65536$' 'BenchmarkRun$/^n=1048576$' \
	'BenchmarkRunStaggered$/^n=65536$' 'BenchmarkRunStaggered$/^n=1048576$' \
	'BenchmarkRunParallel$/^n=65536$' 'BenchmarkRunParallel$/^n=1048576$' \
	'BenchmarkRunParallelStaggered$/^n=65536$' 'BenchmarkRunParallelStaggered$/^n=1048576$' \
	'BenchmarkLuby$/^n=65536$' 'BenchmarkLuby$/^n=1048576$' \
	'BenchmarkLubyPacked$/^n=65536$' 'BenchmarkLubyPacked$/^n=1048576$' \
	'BenchmarkLubyPackedFile$/^n=65536$' 'BenchmarkLubyPackedFile$/^n=1048576$' \
	'BenchmarkRunParallelLubyPacked$/^n=65536$' 'BenchmarkRunParallelLubyPacked$/^n=1048576$' \
	'BenchmarkFloodMinBit$/^n=65536$' 'BenchmarkFloodMinBit$/^n=1048576$' |
	min_over_runs)"

# The streaming-build row runs in its own package (one op is a full build, so
# benchtime stays at 1x regardless of the engine rows' setting).
STREAM_RAW="$(go test -run NONE -bench 'BenchmarkStreamBuild$' -benchtime 1x \
	-count "$BENCH_COUNT" -benchmem ./internal/graph/csrfile | min_over_runs)"
RAW="$RAW
$STREAM_RAW"

# The file-backed rows' baselines are this run's own in-RAM sequential
# BenchmarkLubyPacked rows: a same-runner, same-binary measurement of the
# mmap-backed graph alone.
FILE_BASE="$(printf '%s\n' "$RAW" | awk '
	/^BenchmarkLubyPacked\// {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/^BenchmarkLubyPacked\//, "", name)
		ns = allocs = bytes = ""
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op")     ns     = $(i-1)
			if ($i == "allocs/op") allocs = $(i-1)
			if ($i == "B/op")      bytes  = $(i-1)
		}
		if (ns != "") pl[name] = ns " " allocs " " bytes
	}
	/^BenchmarkLubyPackedFile\// {
		name = $1
		sub(/-[0-9]+$/, "", name)
		size = name
		sub(/^BenchmarkLubyPackedFile\//, "", size)
		if (size in pl) print name, pl[size]
	}')"

BASELINES="$(baselines_from_json BENCH_PR9.json)
$FILE_BASE"

printf '%s\n' "$RAW" |
	bench_to_json "out-of-core CSR (streaming build, mmap-backed engines); LubyPackedFile baselines = this run's in-RAM sequential BenchmarkLubyPacked rows, all other baselines = BENCH_PR9.json; BenchmarkStreamBuild: one op = a full n=2^20 out-of-core build whose ~50MB half-edge stream lives on disk, so bytes_per_op/n (~100B/node) is the documented O(n) peak-heap measurement; min of $BENCH_COUNT runs" "$BENCHTIME" "$BASELINES" > "$OUT"

echo "wrote $OUT"

# Acceptance: warm file-backed execution at n=2^20 must stay within 10% of
# the same run's in-RAM row. (Negative reduction = overhead.)
printf '%s\n' "$RAW" | awk -v filebase="$FILE_BASE" '
BEGIN {
	nb = split(filebase, lines, "\n")
	for (i = 1; i <= nb; i++) {
		split(lines[i], f, " ")
		if (f[1] != "") bns[f[1]] = f[2]
	}
	fail = 1 # the row must be present: a silently-skipped acceptance is a pass that proves nothing
}
/^BenchmarkLubyPackedFile\/n=1048576/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
	if (ns == "" || !(name in bns)) next
	over = (ns / bns[name] - 1) * 100
	ok = (over <= 10)
	printf "%-45s ns/op %+6.1f%% vs in-RAM LubyPacked  %s\n", name, over, ok ? "ok (<= 10% overhead)" : "OVER BUDGET"
	fail = !ok
}
END { exit fail }
' || { echo "bench_pr10: acceptance FAILED" >&2; exit 1; }
echo "bench_pr10: acceptance ok"
