// The benchmark is a module of its own so that it builds from its own build
// file and stays out of the root module's `go build ./... && go test ./...`.
// Its path sits under the root module's, which is what lets it import
// repro/internal/... .
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
