#!/usr/bin/env sh
# bench_ops.sh — regenerate BENCH_ops.json, the operator-level perf
# baseline future PRs compare against.
#
# Usage: scripts/bench_ops.sh [output-file]
#        scripts/bench_ops.sh -check   (parser fixture only, no benchmarks)
#
# Runs the kernel benchmarks of internal/ops, internal/engine and
# internal/mmnet with -benchmem and converts `go test` output into a
# stable JSON document. This includes the mixed-precision pair
# (BenchmarkMatMulI8, BenchmarkAttentionF16), which tracks the
# quantize/dequantize overhead of the emulated low-precision kernels
# against their f32 baselines (BenchmarkEngineMatMul,
# BenchmarkAttentionFused), the BenchmarkMatMulShapes sweep, which
# pins the packed GEMM micro-kernel across square and skinny shapes, the
# BenchmarkLinearFrozen / BenchmarkLinearPerCall pair, which prices
# Linear over a frozen network's kept weight panels against the per-call
# pack of a private network at the shapes the served models issue, and
# the non-GEMM half of a served forward: BenchmarkAttention at the served
# attention shapes and BenchmarkActivation{ReLU,Sigmoid,Tanh,GELU} at the
# mosei FFN's hidden shape.
# Benchmark wall times are machine-dependent; the baseline is meant for
# relative comparisons on one machine (e.g. CI runners of the same
# class), not absolute thresholds.
#
# "git_sha" names the tree that was measured: HEAD, with "-dirty"
# appended when the working tree had uncommitted changes at the start of
# the run — a baseline generated before its kernels were committed must
# not claim the parent's sha.
set -eu

# to_json turns `go test -bench -benchmem` result lines into one JSON
# object per benchmark. B/op and allocs/op are found by their unit labels,
# not by column: a benchmark that calls b.ReportMetric or b.SetBytes puts
# its own "value unit" pairs between ns/op and the memory columns.
to_json() {
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			bytes = allocs = "null"
			for (i = 3; i < NF; i += 2) {
				if ($(i + 1) == "B/op") bytes = $i
				if ($(i + 1) == "allocs/op") allocs = $i
			}
			line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, bytes, allocs)
			if (n++) printf(",\n")
			printf("%s", line)
		}
		END { printf("\n") }
	'
}

# Fixture check, run before any benchmark (and alone under -check, which
# CI gates on): a result line that carries a custom metric must still
# yield its own B/op and allocs/op.
fixture='BenchmarkConv2D/x-2   	     555	   2219569 ns/op	        34.01 GFLOP/s	 1049125 B/op	      10 allocs/op'
case "$(printf '%s\n' "$fixture" | to_json)" in
*'"ns_per_op": 2219569, "bytes_per_op": 1049125, "allocs_per_op": 10}'*) ;;
*) echo "bench_ops.sh: to_json misparsed a line with a custom metric" >&2; exit 1 ;;
esac
if [ "${1:-}" = "-check" ]; then
	exit 0
fi

out="${1:-BENCH_ops.json}"
cd "$(dirname "$0")/.."

sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	sha="$sha-dirty"
fi

raw="$(go test -run '^$' -bench . -benchmem -benchtime "${BENCHTIME:-1s}" \
	./internal/ops ./internal/engine ./internal/mmnet)"

{
	printf '{\n'
	printf '  "generated_by": "scripts/bench_ops.sh",\n'
	printf '  "generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "git_sha": "%s",\n' "$sha"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)}"
	printf '  "cpus": %s,\n' "$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
	printf '  "cpu": "%s",\n' "$(printf '%s\n' "$raw" | awk -F': ' '/^cpu:/{print $2; exit}')"
	printf '  "benchmarks": [\n'
	printf '%s\n' "$raw" | to_json
	printf '  ]\n'
	printf '}\n'
} > "$out"

echo "wrote $out"
