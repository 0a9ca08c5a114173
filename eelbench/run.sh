#!/usr/bin/env bash
# Builds the eelbench benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash eelbench/run.sh --workload edit-stream --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, the go command's configuration and
# telemetry directory, and the binary live under .bench_build in the
# current directory, so nothing is written outside the checkout.  The eelbench module refers to the repository through a
# `replace eel => ../` directive; outside a checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/eelbench" .)
exec "$out/eelbench" "$@"
