#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload single-lock-k64 --seed 2 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, module cache, the
# binary, spans) stays under .bench_build in the checkout, or under
# $CARGO_TARGET_DIR when that is set. The build is offline and uses the
# installed Go toolchain only. Without the repository's own go.mod next
# to this directory the build fails and nothing is printed on stdout.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
mkdir -p "$GOTMPDIR"

(cd "$bench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --spans "$out/spans" "$@"
