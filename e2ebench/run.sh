#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the Go tool's own config and the
# clusters' data files all live under .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal/hbase ]]; then
	echo "e2ebench: run from the repository root: the tpcxiot module is not here" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -root "$out" "$@"
