#!/usr/bin/env bash
# Builds the benchmark program and ttcserve from the source in this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-sf32 --seed 1 --seconds 15 --trace 0
#
# Everything it writes (build cache, binaries, datasets, logs, spans) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the go command's caches and its telemetry/config files in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/ttcserve" repro/cmd/ttcserve) >&2
exec "$out/perfbench" -bin "$out/ttcserve" -work "$out/work" "$@"
