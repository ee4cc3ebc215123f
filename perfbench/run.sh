#!/usr/bin/env bash
# Builds the benchmark and the additivityd daemon from the checkout's
# sources, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/:
# the Go build cache, temporary files, both binaries, the daemons'
# cache dirs, spans and run records.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/additivityd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root: go.mod, cmd/additivityd and perfbench/ are required" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/bin/additivityd" ./cmd/additivityd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -daemon "$build/bin/additivityd" -work "$build" "$@"
