#!/usr/bin/env bash
# Builds vada-server and the benchmark from the checkout it is run in, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wrangle|serve|recover --seed N --seconds S --trace 0|1
#
# Every build and run artefact stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout: the Go build cache, both binaries,
# reports, span dumps and the servers' temporary data dirs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/vada-server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/vada-server and perfbench/ are required" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep the toolchain's caches and settings inside the checkout, offline.
export GOCACHE="$out/go/cache" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path"
export XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/vada-server" ./cmd/vada-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/vada-server" -out "$out/perfbench" "$@"
