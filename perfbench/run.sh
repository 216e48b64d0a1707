#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS NEW_RESULTS
#
# The build stays inside the checkout: the binary and Go's build cache
# go under $CARGO_TARGET_DIR (default .bench_build). Nothing is
# downloaded; the benchmark module resolves the repository module
# through the replace directive in perfbench/go.mod.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
