#!/usr/bin/env bash
# Builds ev8perf from this checkout's sources and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash cmd/ev8perf/run.sh --workload table1_ev8 --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache go to .bench_build (or to
# $CARGO_TARGET_DIR when that is set), so nothing is written outside the
# checkout. Build output goes to stderr; stdout is ev8perf's alone.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go -C cmd/ev8perf build -o "$out/ev8perf" . >&2
exec "$out/ev8perf" "$@"
