#!/usr/bin/env bash
# Builds dualserved and the load generator from this checkout with
# go build -trimpath, then runs one benchmark measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything it writes stays under
# .bench_build/ (binaries, the Go build cache, span files and summaries).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

go build -trimpath -o "$out/dualserved" ./cmd/dualserved
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/dualserved" -out "$out" "$@"
