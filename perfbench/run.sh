#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build and the
# run write stays under ${CARGO_TARGET_DIR:-.bench_build} in the checkout:
# the Go build cache, the binary, and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPATH=$out/gopath

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-results" --commit "$commit" "$@"
