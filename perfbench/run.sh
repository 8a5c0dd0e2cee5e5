#!/usr/bin/env bash
# Builds the admission benchmark from this checkout's sources and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload deep-queue --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# traces) stays under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory. Without the repository's sources next to perfbench/
# the build fails and the script exits 2 without printing a result.
set -euo pipefail
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/perfbench
mkdir -p "$out"
# The Go toolchain keeps its cache, module path and telemetry counters
# here too; the build needs nothing from the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed; run from the repository root" >&2
	exit 2
fi
exec "$out/perfbench" -out "$out" "$@"
