#!/usr/bin/env bash
# Builds iqbbench and iqbserver from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash cmd/iqbbench/run.sh --workload ingest --seed 1 --seconds 8 --trace 0
#
# Everything it writes, the Go build cache included, stays under
# .bench_build/ in the checkout, and nothing is fetched from the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/iqbserver || ! -f cmd/iqbbench/go.mod ]]; then
	echo "run.sh: run from the root of an iqb checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	CGO_ENABLED=0
go -C cmd/iqbbench build -o "$build/bin/iqbbench" .
go -C cmd/iqbbench build -o "$build/bin/iqbserver" iqb/cmd/iqbserver
exec "$build/bin/iqbbench" -server "$build/bin/iqbserver" -work "$build/iqbbench" "$@"
