#!/usr/bin/env bash
# Builds the benchmark and the daemon binaries it drives from the checkout
# this script sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload lubybit-file --seed 1 --seconds 45 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and generated graph files all stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"

# Keep the Go toolchain's caches and temporary files inside the checkout,
# and never reach for the network (the module has no dependencies).
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/locsimd ./cmd/csrgen >&2
go build -C perfbench -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
