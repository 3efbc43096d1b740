package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"nbody/internal/body"
	"nbody/internal/workload"
)

// testMeta returns a valid metadata document for a session of n bodies.
func testMeta(id string, step int) Meta {
	return Meta{
		ID:        id,
		Algorithm: "octree",
		Workload:  "plummer",
		Seed:      7,
		DT:        1e-3,
		Theta:     0.5,
		Eps:       1e-2,
		G:         1,
		N:         0, // filled by Save
		Step:      step,
		Time:      float64(step) * 1e-3,
		State:     StateOK,
	}
}

func sameSystem(t *testing.T, got, want *body.System) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		if got.PosX[i] != want.PosX[i] || got.VelY[i] != want.VelY[i] ||
			got.AccZ[i] != want.AccZ[i] || got.Mass[i] != want.Mass[i] || got.ID[i] != want.ID[i] {
			t.Fatalf("body %d differs after round trip", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := workload.Plummer(64, 3)
	if err := st.Save(testMeta("s-1", 42), sys); err != nil {
		t.Fatal(err)
	}
	meta, got, err := st.Load("s-1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "s-1" || meta.Step != 42 || meta.N != 64 || meta.State != StateOK {
		t.Fatalf("meta %+v", meta)
	}
	sameSystem(t, got, sys)
}

func TestSaveSupersedesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := workload.Plummer(16, 1)
	if err := st.Save(testMeta("s-1", 10), sys); err != nil {
		t.Fatal(err)
	}
	sys.PosX[0] = 123.5
	if err := st.Save(testMeta("s-1", 20), sys); err != nil {
		t.Fatal(err)
	}
	meta, got, err := st.Load("s-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 20 || got.PosX[0] != 123.5 {
		t.Fatalf("load returned step %d pos %v", meta.Step, got.PosX[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "s-1.10.snap")); !os.IsNotExist(err) {
		t.Errorf("superseded generation not removed: %v", err)
	}
}

func TestDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testMeta("s-1", 5), workload.Plummer(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("s-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("s-1", 0); err == nil {
		t.Fatal("load after delete succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Errorf("leftover file %s after delete", e.Name())
		}
	}
	// Idempotent.
	if err := st.Delete("s-1"); err != nil {
		t.Fatalf("second delete: %v", err)
	}
}

func TestBadSessionIDs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", "a.b", "s 1"} {
		if err := st.Save(testMeta(id, 0), workload.Plummer(4, 1)); err == nil {
			t.Errorf("Save accepted id %q", id)
		}
		if _, _, err := st.Load(id, 0); err == nil {
			t.Errorf("Load accepted id %q", id)
		}
	}
}

func TestMarkFailedSurvivesReload(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := workload.Plummer(8, 1)
	if err := st.Save(testMeta("s-1", 3), sys); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkFailed("s-1", "panic: boom"); err != nil {
		t.Fatal(err)
	}
	meta, got, err := st.Load("s-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateFailed || meta.FailReason != "panic: boom" {
		t.Fatalf("meta after MarkFailed: %+v", meta)
	}
	sameSystem(t, got, sys) // the last good payload is untouched
}

// TestFaultInjectionPreservesPreviousCheckpoint is the atomicity test: a
// write, short-write, fsync or rename failure during a later Save must
// surface the error and leave the earlier checkpoint fully loadable.
func TestFaultInjectionPreservesPreviousCheckpoint(t *testing.T) {
	sysA := workload.Plummer(32, 1)
	sysB := sysA.Clone()
	sysB.PosX[0] = 9.25

	cases := []struct {
		name string
		set  func(f *FaultFS)
	}{
		{"first write fails", func(f *FaultFS) { f.FailWriteAt = f.Writes() + 1 }},
		{"short write", func(f *FaultFS) { f.FailWriteAt = f.Writes() + 1; f.ShortWrite = true }},
		{"metadata write fails after snapshot committed", func(f *FaultFS) { f.FailWriteAt = f.Writes() + 2 }},
		{"fsync fails", func(f *FaultFS) { f.FailSync = true }},
		{"rename fails", func(f *FaultFS) { f.FailRename = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := &FaultFS{Inner: OSFS{}}
			st, err := OpenFS(t.TempDir(), ffs)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(testMeta("s-1", 10), sysA); err != nil {
				t.Fatal(err)
			}
			tc.set(ffs)
			if err := st.Save(testMeta("s-1", 20), sysB); !errors.Is(err, ErrInjected) {
				t.Fatalf("faulty save error = %v, want injected fault", err)
			}
			ffs.FailWriteAt, ffs.ShortWrite, ffs.FailSync, ffs.FailRename = 0, false, false, false

			// A recovery scan over the same directory must hand back the
			// step-10 checkpoint untouched.
			recovered, quarantined, err := st.Recover(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(quarantined) != 0 {
				t.Fatalf("quarantined %+v", quarantined)
			}
			if len(recovered) != 1 || recovered[0].Meta.Step != 10 {
				t.Fatalf("recovered %+v, want step 10", recovered)
			}
			sameSystem(t, recovered[0].Sys, sysA)
		})
	}
}

func TestRecoverQuarantinesCorruption(t *testing.T) {
	corrupt := []struct {
		name string
		mod  func(t *testing.T, dir string)
	}{
		{"truncated snapshot", func(t *testing.T, dir string) {
			truncateFile(t, filepath.Join(dir, "s-1.10.snap"), 40)
		}},
		{"flipped payload byte", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, "s-1.10.snap"), 100)
		}},
		{"metadata not json", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, "s-1.json"), []byte("{nope"))
		}},
		{"metadata step mismatch", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, "s-1.json"), []byte(
				`{"id":"s-1","algorithm":"octree","dt":0.001,"n":16,"step":99,"time":0,"state":"ok","snapshot":"s-1.99.snap"}`))
			if err := os.Rename(filepath.Join(dir, "s-1.10.snap"), filepath.Join(dir, "s-1.99.snap")); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing snapshot", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "s-1.10.snap")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(testMeta("s-1", 10), workload.Plummer(16, 1)); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(testMeta("s-2", 4), workload.Plummer(8, 2)); err != nil {
				t.Fatal(err)
			}
			tc.mod(t, dir)

			recovered, quarantined, err := st.Recover(100)
			if err != nil {
				t.Fatalf("recover must not fail on corruption: %v", err)
			}
			if len(recovered) != 1 || recovered[0].Meta.ID != "s-2" {
				t.Fatalf("recovered %+v, want only s-2", recovered)
			}
			if len(quarantined) != 1 || quarantined[0].ID != "s-1" {
				t.Fatalf("quarantined %+v, want s-1", quarantined)
			}
			// The corrupt session's files moved out of the scan path: a
			// second scan sees a clean directory.
			_, q2, err := st.Recover(100)
			if err != nil {
				t.Fatal(err)
			}
			if len(q2) != 0 {
				t.Fatalf("second scan still quarantines %+v", q2)
			}
		})
	}
}

func TestRecoverCleansTmpAndStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := workload.Plummer(16, 1)
	if err := st.Save(testMeta("s-1", 10), sys); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a torn tmp file plus a fully
	// renamed newer payload whose metadata commit never happened.
	writeFile(t, filepath.Join(dir, "s-1.json.tmp"), []byte("torn"))
	writeFile(t, filepath.Join(dir, "s-1.30.snap"), []byte("uncommitted payload"))

	recovered, quarantined, err := st.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 || len(recovered) != 1 || recovered[0].Meta.Step != 10 {
		t.Fatalf("recover = %+v / %+v", recovered, quarantined)
	}
	for _, leftover := range []string{"s-1.json.tmp", "s-1.30.snap"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery: %v", leftover, err)
		}
	}
}

func TestRecoverQuarantinesOrphanSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "s-9.5.snap"), []byte("who owns me"))
	recovered, quarantined, err := st.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || len(quarantined) != 1 || quarantined[0].ID != "s-9" {
		t.Fatalf("recover = %+v / %+v", recovered, quarantined)
	}
}

func TestLoadRejectsNonFiniteState(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := workload.Plummer(8, 1)
	sys.PosX[3] = math.NaN()
	if err := st.Save(testMeta("s-1", 0), sys); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("s-1", 0); err == nil || !strings.Contains(err.Error(), "snapshot state") {
		t.Fatalf("load of NaN state = %v, want state validation error", err)
	}
}

func TestLoadEnforcesBodyLimit(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testMeta("s-1", 0), workload.Plummer(64, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("s-1", 16); err == nil {
		t.Fatal("load over the body limit succeeded")
	}
	_, quarantined, err := st.Recover(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("over-limit session not quarantined: %+v", quarantined)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(data) {
		t.Fatalf("file too short to flip byte %d", off)
	}
	data[off] ^= 0xff
	writeFile(t, path, data)
}

// TestIDs pins the shared ID scheme of both managers: minted IDs round-trip
// through Seq and sort numerically — shard-prefixed ones included, which the
// per-manager helpers this replaced sorted lexicographically — and foreign
// IDs (router-minted, another shard's, the other kind's) sort after them.
func TestIDs(t *testing.T) {
	for _, kind := range []string{"s", "j"} {
		for _, shard := range []string{"", "a"} {
			ids := NewIDs(kind, shard)
			prefix := kind + "-"
			if shard != "" {
				prefix = shard + "-" + prefix
			}
			t.Run(prefix, func(t *testing.T) {
				if got := ids.Mint(10); got != prefix+"10" {
					t.Fatalf("Mint(10) = %q, want %q", got, prefix+"10")
				}
				if n, ok := ids.Seq(prefix + "10"); !ok || n != 10 {
					t.Errorf("Seq(%q) = %d, %v", prefix+"10", n, ok)
				}
				foreign := []string{"r" + kind + "-3f9a", "b-" + kind + "-1", "x-" + prefix + "1", prefix + "1x", prefix}
				for _, id := range foreign {
					if _, ok := ids.Seq(id); ok {
						t.Errorf("Seq(%q) claims a foreign ID", id)
					}
				}
				got := append([]string{ids.Mint(10), ids.Mint(2), ids.Mint(1)}, foreign...)
				sort.Slice(got, func(i, j int) bool { return ids.Less(got[i], got[j]) })
				if want := []string{ids.Mint(1), ids.Mint(2), ids.Mint(10)}; !slices.Equal(got[:3], want) {
					t.Errorf("sorted %v, want %v first", got, want)
				}
				if !sort.StringsAreSorted(got[3:]) {
					t.Errorf("foreign IDs %v not in lexicographic order", got[3:])
				}
			})
		}
	}
}
