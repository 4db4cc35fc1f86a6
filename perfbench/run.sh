#!/usr/bin/env bash
# Builds the benchmark and the program binaries it drives from this
# checkout's sources, then runs one measurement. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the benchmark's own state go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# read or written outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/experiments ] || [ ! -d cmd/validate ]; then
	echo "perfbench: run from the repository root (program sources not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

mkdir -p "$out/go/tmp" "$out/tmp"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" GOMODCACHE="$out/go/mod"
export GOTMPDIR="$out/go/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/go/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -o "$out/bin/experiments" ./cmd/experiments >&2
go build -o "$out/bin/validate" ./cmd/validate >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

# One Go scheduler thread per CPU the process may run on; the benchmark
# records both numbers.
GOMAXPROCS="$(nproc)"
export GOMAXPROCS
exec "$out/bin/perfbench" -bin "$out/bin" -state "$out/state" "$@"
