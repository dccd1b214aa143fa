#!/usr/bin/env bash
# Builds cmd/qmkpd and the benchmark from source in this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash _bench/run.sh --workload exact-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the traced run's span files stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep every file the toolchain writes inside the checkout, and never
# reach for the network or another toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/qmkpd" ./cmd/qmkpd
(cd "$root/_bench" && go build -o "$out/bench" .)
exec "$out/bench" -qmkpd "$out/qmkpd" -out "$out" "$@"
