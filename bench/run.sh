#!/usr/bin/env bash
# Builds the gosplice benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload apply --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# run's scratch files and any trace all stay under .bench_build/ there;
# the build is offline (no toolchain or module downloads). Flags pass
# through to cmd/ksplice-bench; the last line of output is the result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd bench && go build -o "$out/ksplice-bench" ./cmd/ksplice-bench) >&2
exec "$out/ksplice-bench" "$@"
