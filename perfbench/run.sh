#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build products (Go build cache, the binary, checkpoints and span files)
# go under $CARGO_TARGET_DIR, or .bench_build when it is unset, so nothing
# is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
