#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve|suite|flood --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare <set A> <set B>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. The build goes to standard error, so the last line of standard
# output is the run's JSON result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
