#!/usr/bin/env bash
# Build the benchmark, run it at -quick size and check its output against
# BENCHMARK.json (bench_test.go does all three). A later PR can call this from
# .github/workflows/ci.yml in place of the -benchtime=1x smoke.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
test -z "$(gofmt -l .)"
go vet ./...
go test -count=1 ./...
