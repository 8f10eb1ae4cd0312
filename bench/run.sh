#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, temporary files and the benchmark's own
# scratch files (checkpoint journals) all stay under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

here=$(dirname "$0")
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go telemetry off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -scratch "$out" "$@"
