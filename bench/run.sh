#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds dmgm-serve and the benchmark
# from source into <checkout>/.bench_build, then runs the benchmark with the
# arguments given. Everything the Go toolchain writes stays in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
# Without the program there is nothing to measure: say so before anything is
# started or written.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dmgm-serve" ]]; then
	echo "bench/run.sh: no go.mod and cmd/dmgm-serve in $root: the program is not in this checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# With telemetry on (the default, "local"), every go command starts a detached
# child in a session of its own that can outlive this script. Off starts none.
echo off >"$build/config/go/telemetry/mode"
(cd "$root" && go build -o "$build/dmgm-serve" ./cmd/dmgm-serve)
(cd "$here" && go build -o "$build/dmgm-bench" .)
exec "$build/dmgm-bench" -root "$root" -serve-bin "$build/dmgm-serve" "$@"
