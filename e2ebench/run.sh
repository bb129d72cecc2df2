#!/bin/sh
# Builds the end-to-end benchmark and cmd/reprosrv from the tree this
# script sits in, then runs the benchmark with the given arguments:
#
#   sh e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Build outputs, the Go build cache,
# daemon stores, results and trace files all stay under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/reprosrv" ./cmd/reprosrv
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" -root "$root" -daemon "$out/reprosrv" "$@"
