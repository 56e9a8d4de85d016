#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload plan_hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and the
# go command's configuration directory stay under .bench_build as well.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
