#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mesh-pipeline --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binary, and the
# generated input and trace files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
