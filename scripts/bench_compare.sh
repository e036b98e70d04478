#!/usr/bin/env sh
# bench_compare.sh — diff two BENCH_ops.json baselines and flag
# regressions.
#
# Usage: scripts/bench_compare.sh BASELINE.json CANDIDATE.json
#
# Prints each file's git_sha stamp (a "-dirty" suffix means the file was
# generated on an uncommitted tree), then a per-benchmark table of ns/op
# ratios (candidate / baseline), and exits nonzero when any benchmark
# present in both files regressed by more than THRESHOLD percent
# (default 10). Benchmarks present in
# only one file are listed but never fail the comparison — renames and
# new benchmarks are not regressions.
#
# Benchmark wall times are machine-dependent: compare files produced on
# the same machine (or the same CI runner class) only.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: $0 BASELINE.json CANDIDATE.json" >&2
	exit 2
fi
base="$1"
cand="$2"
threshold="${THRESHOLD:-10}"

for f in "$base" "$cand"; do
	if [ ! -f "$f" ]; then
		echo "bench_compare: no such file: $f" >&2
		exit 2
	fi
done

# BENCH_ops.json holds one benchmark object per line, so a line-oriented
# awk pass is a faithful parser for files bench_ops.sh produced.
extract() {
	awk -F'"' '/"name": / {
		name = $4
		line = $0
		sub(/.*"ns_per_op": /, "", line)
		sub(/[,}].*/, "", line)
		printf("%s %s\n", name, line)
	}' "$1"
}

stamp() {
	awk -F'"' '/"git_sha": / { print $4; exit }' "$1"
}
printf 'baseline  %s @ %s\n' "$base" "$(stamp "$base")"
printf 'candidate %s @ %s\n\n' "$cand" "$(stamp "$cand")"

extract "$base" > /tmp/bench_base.$$
extract "$cand" > /tmp/bench_cand.$$
trap 'rm -f /tmp/bench_base.$$ /tmp/bench_cand.$$' EXIT

awk -v threshold="$threshold" '
	NR == FNR { base[$1] = $2; next }
	{ cand[$1] = $2; order[n++] = $1 }
	END {
		printf("%-40s %14s %14s %9s\n", "benchmark", "base ns/op", "cand ns/op", "ratio")
		regressions = 0
		for (i = 0; i < n; i++) {
			name = order[i]
			if (!(name in base)) {
				printf("%-40s %14s %14s %9s\n", name, "-", cand[name], "new")
				continue
			}
			ratio = base[name] > 0 ? cand[name] / base[name] : 1
			flag = ""
			if (ratio > 1 + threshold / 100) {
				flag = "  REGRESSION"
				regressions++
			}
			printf("%-40s %14s %14s %8.3fx%s\n", name, base[name], cand[name], ratio, flag)
			delete base[name]
		}
		for (name in base)
			printf("%-40s %14s %14s %9s\n", name, base[name], "-", "gone")
		if (regressions > 0) {
			printf("\n%d benchmark(s) regressed by more than %s%%\n", regressions, threshold)
			exit 1
		}
	}
' /tmp/bench_base.$$ /tmp/bench_cand.$$
