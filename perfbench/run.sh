#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the root of a checkout:
#
#	bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and trace file stays under .bench_build in
# the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep the toolchain's caches, temporary files and settings inside the
# checkout, and never reach for the network: the module has no
# dependencies outside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
