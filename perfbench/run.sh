#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and the
# run's scratch files (checkpoint directories, span traces) stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
