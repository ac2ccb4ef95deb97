#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every argument goes to the benchmark. Run it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files, the binary, span dumps and count
# fingerprints all stay under .bench_build/ in the checkout, and no module
# is fetched.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
