#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload tracked --seed 1 --seconds 25 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# checkout. Outside a checkout that holds the module (only perfbench/ and
# BENCHMARK.json present) the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
