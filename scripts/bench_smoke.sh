#!/usr/bin/env sh
# bench_smoke.sh — short seq-vs-par benchmark sanity check under the race
# detector.
#
# Builds cmd/nbody-bench with -race and runs a two-step fig5 pass over the
# tree algorithms in both layouts: N=8192 on the flat layout, which is above
# par.SortByKeys's 4096-key sequential cut-off, so the parallel radix sort
# and the octree's level-synchronous key-sorted build run under the detector
# through a real binary; N=2048 on the walk layout, whose concurrent octree
# does not sort. This is a correctness gate, not a performance one: it
# drives the flat interaction-list kernels and the walk kernels through the
# real harness with the race detector watching, and asserts only that every
# expected row comes back with a positive throughput (race builds are
# ~10-20x slower, so speedups are meaningless here and not checked). Nothing
# else runs this binary under race; the package tests get theirs from
# check.sh's `go test -race ./...`.
#
# Usage: ./scripts/bench_smoke.sh  (or: make bench-smoke)
set -eu

cd "$(dirname "$0")/.."

N_FLAT=8192
N_WALK=2048
STEPS=2
ALGS=octree,bvh
SEED=42

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

go build -race -o "$WORK/nbody-bench" ./cmd/nbody-bench

for layout in flat walk; do
    N=$N_WALK
    [ "$layout" = flat ] && N=$N_FLAT
    echo "bench-smoke: fig5 n=$N layout=$layout (race)"
    "$WORK/nbody-bench" fig5 \
        -n "$N" -steps "$STEPS" -repeats 1 -workers 2 -seed "$SEED" \
        -algs "$ALGS" -layout "$layout" -csv >"$WORK/$layout.csv"

    # Every algorithm must produce a seq and a par row with bodies/s > 0.
    awk -v layout="$layout" 'BEGIN { FS = "," }
    !header && $1 == "algorithm" { header = 1; next }
    header && ($2 == "seq" || $2 == "par") {
        if ($3 + 0 <= 0) {
            printf "bench-smoke: %s/%s/%s: non-positive throughput %s\n", layout, $1, $2, $3 > "/dev/stderr"
            bad = 1
        }
        rows++
    }
    END {
        if (rows != 4) {
            printf "bench-smoke: layout %s: got %d rows, want 4 (octree+bvh x seq+par)\n", layout, rows > "/dev/stderr"
            bad = 1
        }
        exit bad
    }' "$WORK/$layout.csv"
done

echo "bench-smoke: OK"
