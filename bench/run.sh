#!/usr/bin/env bash
# Builds fsbench from this checkout's sources and runs it with the given
# arguments (see bench/README.md). Every build product, cache and output
# stays under .bench_build/ at the checkout root, so the run reads and
# writes nothing outside the checkout and needs no network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # go env file and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -C "$root/bench" -o "$out/fsbench" .
cd "$root"
exec "$out/fsbench" "$@"
