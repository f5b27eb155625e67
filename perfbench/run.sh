#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload live-pixel --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (binary, Go caches, temporary and config
# files) stays under $CARGO_TARGET_DIR (default .bench_build) in the
# checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
(
	export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
	export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
	export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
	cd "$root/perfbench" && go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
