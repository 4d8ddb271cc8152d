#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's source and runs it.
#
#   bash ledger/run.sh --workload fig2-stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache and telemetry counters (XDG_CONFIG_HOME),
# the binary, checkpoints and traces.
# Without the repository's source beside ledger/ the build fails, and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/ledger" && go build -o "$out/ledger" .)
cd "$root"
exec "$out/ledger" -out "$out/ledger-runs" "$@"
