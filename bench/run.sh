#!/bin/bash
# Entry point named by BENCHMARK.json. It keeps everything the go tool
# writes inside the checkout (the first run compiles the standard library
# into ./.bench_build, later runs are sub-second no-ops) and hands over to
# the Go harness, which builds cmd/gill-daemon and runs the workload.
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 35 --trace 0
set -e
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
exec go run ./bench "$@"
