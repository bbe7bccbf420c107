#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash bench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, module cache, toolchain config) stays under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "run.sh: run from the repository root (go.mod and bench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd bench && go build -o "$out/mimobench" .)
exec "$out/mimobench" "$@"
