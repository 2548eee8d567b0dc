#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source
# inside this checkout and run it from the checkout's root with the
# arguments given. Everything written — Go's build cache, the binary,
# stores, the gmserved binary — stays under .bench_build/ there.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
go -C benchmark build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
