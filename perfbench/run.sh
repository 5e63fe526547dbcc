#!/usr/bin/env bash
# Builds the benchmark and the toy Modbus server from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload packet-serial --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/peachstar" ]]; then
	echo "perfbench: run from the repository root: no Go module here to benchmark" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
export GOPATH="$out/gopath"

go build -C "$root/perfbench" -o "$out/perfbench" .
go build -o "$out/toy-server" ./examples/realtarget/server

work=$(mktemp -d "$out/work/run.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/perfbench" --server "$out/toy-server" --work "$work" "$@"
