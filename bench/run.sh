#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root: bash bench/run.sh [flags] (see bench/README.md).
# Everything the build writes — binary, Go build cache — goes under
# .bench_build/, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache" GOPATH="$PWD/.bench_build/go-path" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/mmbench-bench .
exec .bench_build/mmbench-bench "$@"
