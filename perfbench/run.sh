#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 18 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all live
# under $CARGO_TARGET_DIR (default .bench_build), relative to the checkout
# root, so nothing is read or written outside the checkout but the Go
# toolchain itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
