//go:build !race

package core

// The bit-identity pin: the accelerations after three steps of the paper's
// galaxy collision at 100 k bodies, hashed per body ID, must not move when
// the engine is refactored. A refactor that keeps the trajectory keeps these
// digests; a change that alters the arithmetic (summation order, opening
// test, kernel) moves them and has to say so. The race detector slows the
// run tenfold and adds nothing here, so the file is left out under -race.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"nbody/internal/body"
	"nbody/internal/par"
	"nbody/internal/soa"
	"nbody/internal/workload"
)

// accDigest is the first 8 bytes, in hex, of SHA-256 over each body's ID
// (little-endian uint64) followed by the bits of its three acceleration
// components, in slot order.
func accDigest(sys *body.System) string {
	h := sha256.New()
	var buf [32]byte
	for i := range sys.ID {
		binary.LittleEndian.PutUint64(buf[0:], uint64(sys.ID[i]))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(sys.AccX[i]))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(sys.AccY[i]))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(sys.AccZ[i]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestAccelerationDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("100 k-body steps; skipped under -short")
	}
	// The digests hold for the amd64 vector kernel; the portable kernel
	// sums the same terms in another order (soa.Kernel).
	pinned := runtime.GOARCH == "amd64" && soa.Kernel() == "avx"
	want := map[Algorithm]string{Octree: "086393d6f440a4b4", BVH: "8813856a5beae208"}
	for _, alg := range []Algorithm{Octree, BVH} {
		for _, workers := range []int{1, 2, 5} {
			sim, err := New(Config{Algorithm: alg, DT: 1e-5, Runtime: par.NewRuntime(workers, par.Dynamic)},
				workload.GalaxyCollision(100_000, 42001))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(3); err != nil {
				t.Fatal(err)
			}
			got := accDigest(sim.System())
			switch {
			case !pinned:
				t.Logf("%v, %d workers: digest %s (kernel %s on %s, not pinned)", alg, workers, got, soa.Kernel(), runtime.GOARCH)
			case got != want[alg]:
				t.Errorf("%v, %d workers: digest %s, want %s", alg, workers, got, want[alg])
			}
		}
	}
	if !pinned {
		t.Skipf("digests are pinned for the amd64 avx kernel; this machine runs %s on %s", soa.Kernel(), runtime.GOARCH)
	}
}
