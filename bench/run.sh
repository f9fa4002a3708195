#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. The Go build cache and the binary live under .bench_build/ at the
# repository root, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
