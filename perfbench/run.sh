#!/usr/bin/env bash
# Builds the study daemon's benchmark from source and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload campaign-local --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's span files all
# stay under .bench_build/perfbench in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
