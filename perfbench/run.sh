#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload table2-random --seed 1 --seconds 15 --trace 0
#
# Every build artefact, cache and temporary file stays in .bench_build/ at
# the root of the checkout. Without the repository around perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
