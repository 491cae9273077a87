#!/usr/bin/env bash
# bench_gate.sh — CI benchmark-regression gate.
#
# Reruns the engine and packed-bit-plane benchmarks (the BenchmarkLuby /
# BenchmarkLubyPacked pair keeps both sides of the packed-vs-unpacked
# comparison honest, and BenchmarkLubyPackedFile holds the mmap-backed
# on-disk graph path to its recorded cost) and compares ns/op, allocs/op and
# bytes/op per benchmark against a committed baseline JSON, failing (exit 1)
# when any of the three regresses by more than the threshold. Benchmarks
# without a row in the baseline (newly added ones) are recorded but not
# gated. The fresh run is always written to BENCH_FRESH.json so CI can
# upload it as an artifact for trend inspection.
#
# allocs/op and bytes/op are machine-independent and gate on every host;
# bytes/op is what a run's buffers cost, so an engine that grows a
# per-message structure shows up there first. ns/op compares a fresh run
# against numbers recorded on whatever machine produced the baseline JSON,
# so a host much slower than the recording machine can trip it spuriously
# even with min-of-BENCH_COUNT noise stripping — raise
# BENCH_GATE_THRESHOLD_PCT (or re-record the baseline) when moving the gate
# to a slower runner class.
#
# Usage: scripts/bench_gate.sh [--baseline baseline.json] [--benchtime 1x]
#        scripts/bench_gate.sh [baseline.json] [benchtime]
#   --baseline baseline.json  committed baseline to gate against
#                             (default BENCH_PR10.json)
#   --benchtime 1x            go test -benchtime value; each size runs
#                             BENCH_COUNT times and the gate compares the
#                             min, which strips shared-machine noise
#
# To re-record the baseline, run the gate on the reference machine and
# commit the BENCH_FRESH.json it writes as the new baseline file, then point
# this script's default BASELINE and ci.yml's --baseline at it.
#
# Env:
#   BENCH_GATE_THRESHOLD_PCT  allowed regression per metric (default 15)
#   BENCH_COUNT               runs per benchmark to take the min of (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/bench_lib.sh

BASELINE="BENCH_PR10.json"
BENCHTIME="1x"
positional=0
while [ $# -gt 0 ]; do
	case "$1" in
	--baseline)
		BASELINE="${2:?bench_gate: --baseline requires a value}"
		shift 2
		;;
	--benchtime)
		BENCHTIME="${2:?bench_gate: --benchtime requires a value}"
		shift 2
		;;
	-h | --help)
		sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
		exit 0
		;;
	--*)
		echo "bench_gate: unknown option $1 (see --help)" >&2
		exit 2
		;;
	*)
		# Positional compatibility: baseline first, then benchtime.
		if [ "$positional" -eq 0 ]; then BASELINE="$1"; else BENCHTIME="$1"; fi
		positional=$((positional + 1))
		shift
		;;
	esac
done
THRESHOLD="${BENCH_GATE_THRESHOLD_PCT:-15}"
export BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_FRESH.json"

if [ ! -f "$BASELINE" ]; then
	echo "bench_gate: baseline $BASELINE not found" >&2
	exit 2
fi

raw=$(run_benchmarks_isolated "$BENCHTIME" \
	'BenchmarkRun$/^n=65536$' 'BenchmarkRun$/^n=1048576$' \
	'BenchmarkRunStaggered$/^n=65536$' 'BenchmarkRunStaggered$/^n=1048576$' \
	'BenchmarkRunParallel$/^n=65536$' 'BenchmarkRunParallel$/^n=1048576$' \
	'BenchmarkRunParallelStaggered$/^n=65536$' 'BenchmarkRunParallelStaggered$/^n=1048576$' \
	'BenchmarkLuby$/^n=65536$' 'BenchmarkLuby$/^n=1048576$' \
	'BenchmarkLubyPacked$/^n=65536$' 'BenchmarkLubyPacked$/^n=1048576$' \
	'BenchmarkLubyPackedFile$/^n=65536$' 'BenchmarkLubyPackedFile$/^n=1048576$' \
	'BenchmarkRunParallelLubyPacked$/^n=65536$' 'BenchmarkRunParallelLubyPacked$/^n=1048576$' | min_over_runs)

printf '%s\n' "$raw" |
	bench_to_json "bench-gate run vs $BASELINE" "$BENCHTIME" "$(baselines_from_json "$BASELINE")" > "$OUT"
echo "wrote $OUT"

CORES=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)

printf '%s\n' "$raw" | awk -v thr="$THRESHOLD" -v cores="$CORES" -v baselines="$(baselines_from_json "$BASELINE")" '
BEGIN {
	nb = split(baselines, lines, "\n")
	for (i = 1; i <= nb; i++) {
		split(lines[i], f, " ")
		if (f[1] != "") { bns[f[1]] = f[2]; ball[f[1]] = f[3]; bby[f[1]] = f[4] }
	}
	fail = 0
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = allocs = bytes = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns     = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
		if ($i == "B/op")      bytes  = $(i-1)
	}
	if (ns == "") next
	if (!(name in bns)) {
		printf "%-55s (no baseline; not gated)\n", name
		next
	}
	if (name ~ /\/workers=1$/) {
		# A one-worker pool dispatches to the sequential engine, so these
		# rows duplicate BenchmarkRun, which is already gated; they are
		# recorded in the fresh JSON but not compared.
		printf "%-55s (duplicates sequential path; not gated)\n", name
		next
	}
	dns = (ns / bns[name] - 1) * 100
	dal = (allocs / ball[name] - 1) * 100
	dby = (bytes / bby[name] - 1) * 100
	# Wall clock of a K-worker benchmark only means something on a host
	# that can run K workers in parallel; on smaller hosts barrier
	# scheduling noise dominates, so gate just the allocations there.
	gateNS = 1
	if (match(name, /workers=[0-9]+$/) && substr(name, RSTART + 8) + 0 > cores + 0) gateNS = 0
	status = "ok"
	if (!gateNS) status = "ok (ns not gated: workers > cores)"
	if ((gateNS && dns > thr) || dal > thr || dby > thr) { status = "REGRESSION"; fail = 1 }
	printf "%-55s ns/op %+8.1f%%  allocs/op %+8.1f%%  bytes/op %+8.1f%%  %s\n", name, dns, dal, dby, status
}
END {
	if (fail) exit 1
	print "bench_gate: within threshold"
}
' || { echo "bench_gate: FAILED (threshold ${THRESHOLD}%, baseline $BASELINE)" >&2; exit 1; }
