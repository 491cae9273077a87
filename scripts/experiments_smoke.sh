#!/usr/bin/env bash
# experiments_smoke.sh — CI smoke test for the experiments pipeline.
#
# Exercises the three guarantees the pipeline makes:
#   1. A -quick sweep of a fast experiment subset completes and emits
#      records.json / records.csv next to the rendered tables.
#   2. The emission passes schema validation (-validate) and the CSV has
#      the fixed long-format header.
#   3. The checkpoint/resume round-trip: a run stopped early via -limit
#      (the controlled-interruption hook; torn-journal kills are covered by
#      the package's Go tests) is resumed from its checkpoint and must
#      reproduce the uninterrupted run's records exactly (-diff compares
#      stable fields, ignoring wall-clock metadata).
#   4. Host independence: the whole quick sweep run on one processor
#      (GOMAXPROCS=1), on the sequential engine and on a three-worker
#      parallel pool, reproduces the default run's records exactly — no
#      stable field may depend on the host's processor count.
#
# Usage: scripts/experiments_smoke.sh [outdir]
# Env:   EXPERIMENTS_SMOKE_SUBSET  comma-separated IDs (default E3,E5,E11,E12)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-experiments-smoke-out}"
SUBSET="${EXPERIMENTS_SMOKE_SUBSET:-E3,E5,E11,E12}"
rm -rf "$OUT"
mkdir -p "$OUT"

echo "== full quick run ($SUBSET)"
go run ./cmd/experiments -quick -experiment "$SUBSET" -out "$OUT/full" -md "$OUT/EXPERIMENTS.quick.md"

echo "== schema validation"
go run ./cmd/experiments -validate "$OUT/full"
head -1 "$OUT/full/records.csv" | grep -q '^experiment,unit,n,trial,ok,metric,value$'
[ "$(wc -l <"$OUT/full/records.csv")" -gt 1 ]

echo "== checkpoint/resume round-trip (write, stop, resume, compare)"
go run ./cmd/experiments -quick -experiment "$SUBSET" -out "$OUT/resume" -limit 3
if [ -f "$OUT/resume/records.json" ]; then
	echo "experiments_smoke: interrupted run emitted records.json" >&2
	exit 1
fi
go run ./cmd/experiments -quick -experiment "$SUBSET" -out "$OUT/resume"
go run ./cmd/experiments -diff "$OUT/full/records.json" "$OUT/resume/records.json"

echo "== faulted-sweep checkpoint/resume (E12 interrupted mid-sweep)"
go run ./cmd/experiments -quick -experiment E12 -out "$OUT/e12full"
go run ./cmd/experiments -quick -experiment E12 -out "$OUT/e12resume" -limit 7
go run ./cmd/experiments -quick -experiment E12 -out "$OUT/e12resume"
go run ./cmd/experiments -diff "$OUT/e12full/records.json" "$OUT/e12resume/records.json"

echo "== host independence (whole quick sweep: default vs GOMAXPROCS=1)"
go run ./cmd/experiments -quick -out "$OUT/host-default" >/dev/null
GOMAXPROCS=1 go run ./cmd/experiments -quick -out "$OUT/host-1cpu" >/dev/null
GOMAXPROCS=1 go run ./cmd/experiments -quick -scheduler parallel -workers 3 -out "$OUT/host-1cpu-par3" >/dev/null
go run ./cmd/experiments -diff "$OUT/host-default/records.json" "$OUT/host-1cpu/records.json"
go run ./cmd/experiments -diff "$OUT/host-default/records.json" "$OUT/host-1cpu-par3/records.json"

echo "experiments smoke: OK (records in $OUT/full)"
