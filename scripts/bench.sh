#!/bin/sh
# Run the benchmark suites with repeats and emit one baseline file per
# suite at the repo root -- BENCH_exec.json (executor + event loop, and
# a spot run through core), BENCH_sweep.json (sweep-engine grid
# kernel), BENCH_store.json (disk-store get and envelope encode) and
# BENCH_montage.json (workflow generation): one JSON object per
# benchmark run, carrying name, iterations, ns/op and (when the suite
# reports them) B/op and allocs/op.
#
#   make bench                 # 3 repeats, writes BENCH_*.json
#   BENCH_COUNT=5 make bench   # more repeats
#   BENCH_DIR=out make bench   # write the files somewhere else
#
# With -check the script becomes the benchmark-regression gate: it
# re-runs every suite into a scratch directory (the gate must not
# clobber the baselines it compares against), then for each committed
# BENCH_*.json baseline compares each benchmark's mean ns/op and fails
# when any benchmark regressed by more than BENCH_TOLERANCE percent
# (default 25).  Refresh the baselines with a plain `make bench` when a
# slowdown is intentional.
#
#   make bench-check
#   BENCH_TOLERANCE=40 sh scripts/bench.sh -check
set -eu
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
DIR="${BENCH_DIR:-.}"
SCRATCH=""

TMP="$(mktemp)"
BASE_MEANS="$(mktemp)"
FRESH_MEANS="$(mktemp)"
cleanup() {
	rm -f "$TMP" "$BASE_MEANS" "$FRESH_MEANS"
	if [ -n "$SCRATCH" ]; then
		rm -rf "$SCRATCH"
	fi
}
trap cleanup EXIT

if [ "${1:-}" = "-check" ]; then
	SCRATCH="$(mktemp -d)"
	DIR="$SCRATCH"
fi

# suites maps each baseline name to the packages its suite benches.
# Adding a line here (plus committing the baseline it writes) is all it
# takes to put a new suite under the regression gate.
suites() {
	echo "exec ./internal/exec/ ./internal/core/"
	echo "sweep ./internal/sweep/"
	echo "store ./internal/store/"
	echo "montage ./internal/montage/"
}

# bench_to_json converts `go test -bench` output to the baseline JSON.
# The GOMAXPROCS suffix (-8) is stripped from names so runs from
# different machines group under the same benchmark.  An optional
# second argument is an ERE of benchmark names to keep out of the
# baseline (they still run and print; they just are not gated).
bench_to_json() {
	awk -v exclude="${2:-}" '
	BEGIN { print "["; n = 0 }
	/^Benchmark/ {
		name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
		sub(/-[0-9]+$/, "", name)
		if (exclude != "" && name ~ exclude) next
		for (i = 3; i <= NF; i++) {
			if ($i == "ns/op")     ns = $(i-1)
			if ($i == "B/op")      bytes = $(i-1)
			if ($i == "allocs/op") allocs = $(i-1)
		}
		if (ns == "") next
		if (n++) printf ",\n"
		printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
		if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
		if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
		printf "}"
	}
	END { print "\n]" }
	' "$1"
}

suites | while read -r suite pkgs; do
	# The store's put (two fsyncs per op) and startup-scan (256 files of
	# stat + readdir) benchmarks are IO-bound and swing well past 25%
	# run to run, so only the CPU-bound read path and envelope encode
	# are gated for them.
	exclude=""
	[ "$suite" = "store" ] && exclude="StorePut|StoreOpenScan"
	# shellcheck disable=SC2086 # pkgs is a deliberate word list
	go test -run '^$' -bench . -benchmem -count "$COUNT" $pkgs | tee "$TMP"
	bench_to_json "$TMP" "$exclude" > "$DIR/BENCH_$suite.json"
	echo "wrote $DIR/BENCH_$suite.json ($(grep -c '"name"' "$DIR/BENCH_$suite.json") benchmark runs)"
done

[ "${1:-}" = "-check" ] || exit 0

# ---- regression gate ----

TOLERANCE="${BENCH_TOLERANCE:-25}"

# mean_of_json prints "name mean_ns" per benchmark, averaging repeats.
mean_of_json() {
	awk '
	{
		if (match($0, /"name": "[^"]+"/)) {
			name = substr($0, RSTART + 9, RLENGTH - 10)
			sub(/-[0-9]+$/, "", name)
			if (match($0, /"ns_per_op": [0-9.e+]+/)) {
				ns = substr($0, RSTART + 13, RLENGTH - 13)
				sum[name] += ns; cnt[name]++
			}
		}
	}
	END { for (n in sum) printf "%s %.1f\n", n, sum[n] / cnt[n] }
	' "$1" | sort
}

found=0
for BASELINE in BENCH_*.json; do
	[ -f "$BASELINE" ] || continue
	found=1
	FRESH="$SCRATCH/$BASELINE"
	if [ ! -f "$FRESH" ]; then
		echo "bench: baseline $BASELINE matches no suite in scripts/bench.sh; retire the file or add its suite" >&2
		exit 1
	fi
	echo "== $BASELINE =="
	mean_of_json "$BASELINE" > "$BASE_MEANS"
	mean_of_json "$FRESH" > "$FRESH_MEANS"

	# Join on benchmark name; only benchmarks present in both files are
	# gated, so adding or retiring a benchmark never trips the gate.
	join "$BASE_MEANS" "$FRESH_MEANS" | awk -v tol="$TOLERANCE" '
	{
		base = $2; fresh = $3
		pct = (fresh - base) / base * 100
		status = "ok"
		if (pct > tol) { status = "REGRESSED"; bad++ }
		printf "%-40s %12.0f -> %12.0f ns/op  %+7.1f%%  %s\n", $1, base, fresh, pct, status
		n++
	}
	END {
		if (n == 0) { print "bench: no benchmarks in common with the baseline" | "cat >&2"; exit 1 }
		if (bad > 0) {
			printf "bench: %d benchmark(s) regressed beyond %s%%\n", bad, tol | "cat >&2"
			exit 1
		}
		printf "bench: %d benchmark(s) within %s%% of the baseline\n", n, tol
	}
	'
done
if [ "$found" = 0 ]; then
	echo "bench: no BENCH_*.json baselines; run 'make bench' and commit them" >&2
	exit 1
fi
