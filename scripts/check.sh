#!/bin/sh
# Full local gate: vet, build, tests, then the race detector over the
# whole tree (the serve session-manager and core cancellation tests are
# the concurrency-heavy ones this exists for). Same steps as `make check`,
# plus the orphan-package audit between build and test.
# CI runs on amd64 only, so the arm64 cross-build and vet are what compile
# the portable (!amd64) side of internal/soa's kernel split.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/soa/

# Every engine package must be reachable from something that runs — a
# binary, the benchmark, the SDK or the root facade. One that only an
# example or its own tests import has no workload, route or tool behind it
# (EXPERIMENTS.md, "The quadtree verdict") and must not come back unnoticed.
set +x
reachable=$(go list -deps ./cmd/... ./bench ./client .)
orphans=$(go list ./internal/... | grep -vxF "$reachable" || true)
if [ -n "$orphans" ]; then
	echo "check: packages under internal/ that no binary, bench/, client/ or the root package imports:" >&2
	echo "$orphans" >&2
	exit 1
fi
set -x

go test ./...
go test -race ./...

# Run every benchmark of the engine layers EXPERIMENTS.md cites once, so
# they keep compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/sfc ./internal/par ./internal/octree ./internal/bvh ./internal/soa
