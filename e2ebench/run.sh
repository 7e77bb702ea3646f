#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload atpg-suite --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files live
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
# Without the repository around it (no ../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
