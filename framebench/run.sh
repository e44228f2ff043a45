#!/usr/bin/env bash
# Builds the benchmark and the system under test (tigris-serve and
# tigris-gateway) from this checkout, then runs the benchmark with the
# given arguments. Run it from the repository root:
#
#   bash framebench/run.sh --workload sensor-stream --seed 1 --seconds 38 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd framebench && go build -o "$out/bin/framebench" .)
go build -o "$out/bin/" ./cmd/tigris-serve ./cmd/tigris-gateway
exec "$out/bin/framebench" --bin "$out/bin" --out "$out" "$@"
