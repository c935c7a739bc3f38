#!/usr/bin/env bash
# Builds served, datagen and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload bsbm-curated-hot --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/ in the
# checkout. Build failures (for example in a directory that holds only the
# benchmark) exit non-zero before any result is printed.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
# In its default telemetry mode ("local") the go command may fork a
# detached telemetry process that outlives this script; turn telemetry off
# in the checkout-local config directory before the first go command runs.
mkdir -p "$build/config/go/telemetry"
printf 'off' >"$build/config/go/telemetry/mode"

go build -o "$build/bin/" ./cmd/served ./cmd/datagen >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --root "$root" "$@"
