#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash lvpbench/run.sh --workload sim-vp --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Everything the build and the run
# write lands under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

# Keep the toolchain's caches and config inside the checkout, and never
# reach for the network: the module has no dependencies outside it.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$root/lvpbench" && go build -o "$out/lvpbench" .)
exec "$out/lvpbench" -work "$out/work" "$@"
