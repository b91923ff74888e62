#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the repository. Everything the build and the run
# write (Go build cache, binary, trace files) goes under .bench_build/
# (or $CARGO_TARGET_DIR when set) inside the checkout. Without the
# module's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/gocache" "$out/gotmp"

# Keep the toolchain's caches, config and telemetry inside the checkout.
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache
export GOMODCACHE=$out/home/gomod
export GOPATH=$out/home/go
export GOTMPDIR=$out/gotmp
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out-dir "$out" "$@"
