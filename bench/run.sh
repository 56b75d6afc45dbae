#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload fleet-steady --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the
# binary, the Go build cache, temporary files, Go's own config and
# telemetry) stays under .bench_build/ in the current directory, and no
# module is fetched over the network: the benchmark's only dependency is
# the repository itself, through the replace directive in bench/go.mod.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/cheriot-bench" .
exec "$out/cheriot-bench" "$@"
