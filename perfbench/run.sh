#!/usr/bin/env bash
# Builds the benchmark and the sharingd daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the Go temporary directory
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# Build output goes to stderr: the last line of stdout is the result.
go build -C perfbench -o "$out/perfbench" . 1>&2
go build -o "$out/sharingd" ./cmd/sharingd 1>&2
exec "$out/perfbench" -sharingd "$out/sharingd" "$@"
