# bench_lib.sh — shared machinery for the CI regression gate
# (bench_gate.sh). Source it; do not execute it.
#
# The JSON shape is stable: {note, benchtime, benchmarks: [
# {name, ns_per_op, bytes_per_op, allocs_per_op, baseline_*...}]}, where the
# baseline_* and *_reduction_pct fields appear on benchmarks that have a row
# in the baseline spec ("name ns allocs bytes" per line).

# run_benchmarks_isolated <benchtime> <bench-regex>...
# One `go test` process per regex, outputs concatenated. Heavy benchmarks
# measurably pollute the heap/GC state of whatever runs after them in the
# same process (>50% ns/op swings at n=2^20 on small machines), so the CI
# gate isolates each benchmark size — regexes may use
# `go test`'s slash syntax to select sub-benchmarks.
run_benchmarks_isolated() {
	local benchtime="$1"
	shift
	local pat
	for pat in "$@"; do
		go test -run NONE -bench "$pat" -benchtime "$benchtime" -count "${BENCH_COUNT:-1}" -benchmem .
	done
}

# min_over_runs
# Collapses repeated runs of the same benchmark (-count > 1) to the single
# run with the lowest ns/op — the standard way to strip scheduler and GC
# noise from a shared machine before comparing against a threshold.
min_over_runs() {
	awk '
	/^Benchmark/ {
		name = $1
		ns = ""
		for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
		if (ns == "") next
		if (!(name in bestns)) order[++k] = name
		if (!(name in bestns) || ns + 0 < bestns[name]) { bestns[name] = ns + 0; best[name] = $0 }
		next
	}
	END { for (i = 1; i <= k; i++) print best[order[i]] }
	'
}

# bench_to_json <note> <benchtime> [baseline_spec]
# Reads raw benchmark output on stdin and emits the baseline JSON document.
bench_to_json() {
	awk -v note="$1" -v benchtime="$2" -v baselines="${3:-}" '
	BEGIN {
		nb = split(baselines, lines, "\n")
		for (i = 1; i <= nb; i++) {
			split(lines[i], f, " ")
			if (f[1] != "") base[f[1]] = f[2] " " f[3] " " f[4]
		}
		printf "{\n  \"note\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", note, benchtime
		first = 1
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
		ns = allocs = bytes = ""
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op")     ns     = $(i-1)
			if ($i == "allocs/op") allocs = $(i-1)
			if ($i == "B/op")      bytes  = $(i-1)
		}
		if (ns == "") next
		if (!first) printf ",\n"
		first = 0
		printf "    {\n      \"name\": \"%s\",\n      \"ns_per_op\": %s,\n      \"bytes_per_op\": %s,\n      \"allocs_per_op\": %s", name, ns, bytes, allocs
		if (name in base) {
			split(base[name], b, " ")
			printf ",\n      \"baseline_ns_per_op\": %s,\n      \"baseline_allocs_per_op\": %s,\n      \"baseline_bytes_per_op\": %s", b[1], b[2], b[3]
			printf ",\n      \"allocs_reduction_pct\": %.1f", (1 - allocs / b[2]) * 100
			printf ",\n      \"ns_reduction_pct\": %.1f", (1 - ns / b[1]) * 100
		}
		printf "\n    }"
	}
	END { printf "\n  ]\n}\n" }
	'
}

# baselines_from_json <file>
# Extracts "name ns allocs bytes" rows from a committed baseline JSON, for
# use as a bench_to_json baseline spec or as the gate's reference. Matches
# only the un-prefixed per-op fields (a leading quote excludes baseline_*).
baselines_from_json() {
	awk '
	/"name":/          { gsub(/[",]/, "", $2); name = $2 }
	/"ns_per_op":/     { gsub(/,/, "", $2); ns = $2 }
	/"bytes_per_op":/  { gsub(/,/, "", $2); bytes = $2 }
	/"allocs_per_op":/ { gsub(/,/, "", $2); print name, ns, $2, bytes }
	' "$1"
}
