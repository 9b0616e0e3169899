#!/usr/bin/env bash
# Builds the benchmark and the sslic-video tool from the sources of the
# checkout it is run from, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload warm_streams --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files all go under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/sslic-video" sslic/cmd/sslic-video
)
exec "$out/perfbench" -video "$out/sslic-video" -out "$out" "$@"
