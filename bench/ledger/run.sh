#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it against this checkout.
#
#   bash bench/ledger/run.sh --workload artist-ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, and
# every data directory the runs create stay under .bench_build/ there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench/ledger" && go build -o "$build/ledger" .)
cd "$root"
exec "$build/ledger" "$@"
