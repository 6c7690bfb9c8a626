#!/usr/bin/env bash
# Builds the benchmark and cmd/ingestd from the checkout this is run in,
# then runs the benchmark with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload live-incidents --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, and the temporary directories go
# build would otherwise make under /tmp.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C e2ebench -o "$out/e2ebench" .
go build -o "$out/ingestd" ./cmd/ingestd
exec "$out/e2ebench" -ingestd "$out/ingestd" -work "$out/work" "$@"
