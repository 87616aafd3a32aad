#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload mix-distributed --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, temporary stores and span files go under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory, so
# nothing is written outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out" "$@"
