#!/usr/bin/env bash
# Builds andord and the benchmark program (perfbench) from the sources of
# this checkout, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-run --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# span dumps all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/andord || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/andord and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/andord" ./cmd/andord
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -andord "$out/andord" -out "$out" "$@"
