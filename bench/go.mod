// The benchmark is a module of its own so that it has its own build file and
// the repository's `go build ./...` and `go test ./...` do not reach it.  Its
// path sits under the repository's module path, which is what lets it import
// repro/internal/... like any in-module package.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
