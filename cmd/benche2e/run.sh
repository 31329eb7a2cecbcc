#!/usr/bin/env bash
# Builds the end-to-end study benchmark and the gpuscaled daemon from
# this checkout, then runs one workload. Run it from the repository
# root; every argument is passed through to the benchmark:
#
#   bash cmd/benche2e/run.sh --workload round-node --seed 1 --seconds 20 --trace 0
#
# The binaries, the Go build cache and each run's state and traces
# live under .bench_build/ in the current directory, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/gpuscaled" ./cmd/gpuscaled
(cd cmd/benche2e && go build -o "$out/benche2e" .)
exec "$out/benche2e" -gpuscaled "$out/gpuscaled" -workdir "$out/e2e" "$@"
