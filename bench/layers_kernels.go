package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nbody/internal/allpairs"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/snapshot"
	"nbody/internal/soa"
	"nbody/internal/store"
	"nbody/internal/stream"
	"nbody/internal/workload"
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float64

// bestOf returns the fastest of reps timings of f, in seconds: for a fixed
// amount of work the minimum is the run least disturbed by the machine.
func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// kernelLadder times the leaf kernels once, at fixed sizes that do not
// depend on the workload (only the seed varies the data): ns per unit of
// work, so a kernel change shows here before it shows in a step.
func kernelLadder(o options, rep *report, tr *tracer) error {
	big, sources, targets, pairsN, triadN := 100_000, 4096, 1024, 8192, 1<<22
	if o.smoke {
		big, sources, targets, pairsN, triadN = 4096, 256, 64, 512, 1<<14
	}
	rt := par.Default()
	sys := workload.Plummer(big, o.seed)
	eps2 := grav.DefaultParams().Eps2()
	rnd := rand.New(rand.NewPCG(o.seed, 0x6b65726e))

	// Cache-resident interaction list: 4 arrays × 4096 × 8 B = 128 KiB.
	list := soa.GetList()
	list.AddBodies(sys.PosX, sys.PosY, sys.PosZ, sys.Mass, 0, sources)
	tr.call("soa.list", 0, 0, func() {
		sec := bestOf(5, func() {
			for i := 0; i < targets; i++ {
				ax, ay, az := list.Accel(sys.PosX[i], sys.PosY[i], sys.PosZ[i], eps2)
				sink += ax + ay + az
			}
		})
		rep.add("soa.ns_per_interaction", sec*1e9/float64(sources*targets), "ns",
			fmt.Sprintf("%d sources × %d targets, one core", sources, targets))
	})
	soa.PutList(list)

	// The same kernel streaming all bodies: 4 × 100 000 × 8 B = 3.2 MB per target.
	streamTargets := targets / 4
	tr.call("soa.stream", 0, 0, func() {
		sec := bestOf(3, func() {
			for i := 0; i < streamTargets; i++ {
				ax, ay, az := soa.Accel(sys.PosX, sys.PosY, sys.PosZ, sys.Mass, 0, big, sys.PosX[i], sys.PosY[i], sys.PosZ[i], eps2)
				sink += ax + ay + az
			}
		})
		rep.add("soa.ns_per_interaction_stream", sec*1e9/float64(big*streamTargets), "ns",
			fmt.Sprintf("%d sources × %d targets, one core", big, streamTargets))
	})

	pairs := workload.Plummer(pairsN, o.seed)
	tr.call("allpairs", 0, 0, func() {
		sec := bestOf(3, func() { allpairs.AllPairs(rt, par.ParUnseq, pairs, grav.DefaultParams()) })
		rep.add("allpairs.ns_per_interaction", sec*1e9/float64(pairsN*pairsN), "ns",
			fmt.Sprintf("N=%d, wall time on %d workers", pairsN, rt.Workers()))
	})

	keys := make([]uint64, big)
	idx := make([]int32, big)
	tr.call("par.sort", 0, 0, func() {
		var secs []float64
		for i := 0; i < 5; i++ {
			for j := range keys {
				keys[j] = rnd.Uint64() >> 1 // 63 bits, the width of a 3×21-bit curve key
				idx[j] = int32(j)
			}
			t := time.Now()
			par.SortByKeys(rt, par.Par, keys, idx)
			secs = append(secs, time.Since(t).Seconds())
		}
		rep.add("par.sort_mkeys_s", float64(big)/1e6/median(secs), "Mkeys/s", fmt.Sprintf("%d keys", big))
	})

	tr.call("sfc.hilbert", 0, 0, func() {
		const mask = 1<<sfc.MaxOrder3D - 1
		sec := bestOf(3, func() {
			var acc uint64
			for _, k := range keys {
				acc ^= sfc.HilbertIndex3D(uint32(k)&mask, uint32(k>>21)&mask, uint32(k>>42)&mask, sfc.MaxOrder3D)
			}
			sink += float64(acc & 1)
		})
		rep.add("sfc.hilbert_ns_key", sec*1e9/float64(big), "ns", "order 21, one core")
	})

	tr.call("stream.triad", 0, 0, func() {
		for _, r := range stream.Benchmark(rt, par.ParUnseq, triadN, 3) {
			if r.Kernel == "Triad" {
				rep.check(r.Checked, "stream TRIAD arrays failed verification")
				// A bandwidth figure is a memory figure only when the arrays
				// dwarf the last-level cache; on this class of host they do
				// not, so both sizes are printed and no roofline is derived.
				rep.add("stream.triad_gbs", r.GBps, "GB/s",
					fmt.Sprintf("3 arrays × %d B; last-level cache %s", triadN*8, llcSize()))
			}
		}
	})

	mb := float64(snapshot.EncodedSize(big)) / 1e6
	tr.call("snapshot.write", 0, 0, func() {
		sec := bestOf(3, func() {
			if err := snapshot.Write(io.Discard, sys, snapshot.Meta{}); err != nil {
				rep.check(false, "snapshot.Write: %v", err)
			}
		})
		rep.add("snapshot.write_mb_s", mb/sec, "MB/s", fmt.Sprintf("%d bodies, %.1f MB to io.Discard", big, mb))
	})

	// Scratch files stay under the output directory, so the benchmark
	// writes nowhere outside its checkout.
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "state"))
	if err != nil {
		return err
	}
	tr.call("store.save", 0, 0, func() {
		var ms []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			err := st.Save(store.Meta{ID: "bench", Algorithm: "octree", DT: 1e-3, Step: i}, sys)
			ms = append(ms, msSince(t))
			rep.check(err == nil, "store.Save: %v", err)
		}
		rep.add("store.save_ms", median(ms), "ms", "fsync included; depends on the disk, informational")
	})
	return nil
}

// llcSize reads the size of the largest cache the kernel reports for CPU 0.
func llcSize() string {
	best, bestKB := "unknown", 0
	matches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		if kb, err := strconv.Atoi(strings.TrimSuffix(s, "K")); err == nil && kb > bestKB {
			best, bestKB = s, kb
		}
	}
	return best
}
