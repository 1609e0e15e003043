#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload judge-tcp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache and config, the binary, journals, span files) goes under
# .perfbench/ there.
set -euo pipefail

root=$(pwd)
out="$root/.perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
