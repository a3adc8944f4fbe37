#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build and every Go cache stay in
# .bench_build/ under the current directory; build output goes to stderr so
# that the benchmark's JSON result stays the last line of stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
