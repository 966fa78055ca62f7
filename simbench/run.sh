#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload chat-steady --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, toolchain state) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
