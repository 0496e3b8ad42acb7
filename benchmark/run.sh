#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload odoh-closed --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and temporary files, and the spans of
# traced runs go under .bench_build/ (or $CARGO_TARGET_DIR when set), so
# the run writes nothing outside the checkout. Without the repository's
# Go module beside it the build fails and the script exits nonzero.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
