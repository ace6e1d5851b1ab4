#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload kv-uniform --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout, so the run reads and writes nothing outside
# it apart from the Go toolchain itself.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off GOENV=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
	export BENCH_COMMIT
fi
(cd "$root/benchmark" && go build -o "$out/probquorum-benchmark" .)
exec "$out/probquorum-benchmark" "$@"
