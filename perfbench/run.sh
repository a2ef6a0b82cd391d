#!/usr/bin/env bash
# Builds eh-server and the load generator from the checkout's sources and
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload count --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Every build and run artifact (Go build cache included) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/eh-server" ./cmd/eh-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/eh-server" -work "$out/work" "$@"
