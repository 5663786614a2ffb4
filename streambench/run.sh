#!/usr/bin/env bash
# Builds streamtokd and the benchmark harness from this checkout, then
# runs the harness with the given arguments, e.g.
#
#   bash streambench/run.sh --workload log-stream --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (Go's build cache included).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/work"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/gotmp \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go build -o "$out/streamtokd" ./cmd/streamtokd
(cd streambench && go build -o "$out/streambench" .)
exec "$out/streambench" --daemon "$out/streamtokd" --work "$out/work" "$@"
