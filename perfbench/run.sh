#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload compile|run|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary and the Go build cache
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout;
# the traced run writes its Chrome trace to $CARGO_TARGET_DIR/traces.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
# The go command keeps its environment file and telemetry counters
# under the user's config directory; point that, GOPATH and the caches
# into $out so that building reads and writes only inside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
