#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root;
# every argument passes through. Build output, the Go build cache, run
# records and spans go under $CARGO_TARGET_DIR (default .bench_build).
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 36 --trace 0
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/perfbench
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/runs" "$@"
