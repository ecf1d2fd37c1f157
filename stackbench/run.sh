#!/usr/bin/env bash
# Builds stackbench from the sources of the checkout it sits in and runs it
# from the checkout root with the given arguments, e.g.
#
#   bash stackbench/run.sh --workload fleet-drift --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
# The go command's cache, temporary files and user config (where it keeps
# its telemetry counters) all live in the checkout; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -trimpath -o "$out/stackbench" .)
cd "$root"
exec "$out/stackbench" "$@"
