package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbody/internal/simcfg"
)

func testJobRecord(id string) JobRecord {
	return JobRecord{
		ID:       id,
		Class:    "normal",
		State:    "queued",
		Workload: "plummer",
		N:        64,
		Config:   simcfg.Effective{Algorithm: "octree", Layout: "flat", DT: 1e-3, Pipeline: true},
		Steps:    100,
		Created:  time.Now().UTC(),
	}
}

func TestJobStoreRoundTrip(t *testing.T) {
	js, err := OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testJobRecord("j-1")
	rec.SessionID = "s-9"
	rec.StepsDone = 40
	if err := js.Save(rec); err != nil {
		t.Fatal(err)
	}
	// Overwrite with progress; the latest save wins.
	rec.StepsDone = 60
	rec.State = "running"
	if err := js.Save(rec); err != nil {
		t.Fatal(err)
	}

	recs, quarantined, err := js.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("quarantined %v", quarantined)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	got := recs[0]
	if got.ID != "j-1" || got.StepsDone != 60 || got.State != "running" || got.SessionID != "s-9" {
		t.Fatalf("recovered record %+v", got)
	}
	if got.Config != rec.Config {
		t.Errorf("config %+v did not round-trip, want %+v", got.Config, rec.Config)
	}
	if got.UpdatedAt.IsZero() {
		t.Error("UpdatedAt not stamped")
	}
}

func TestJobStoreRecoverSortsAndSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	js, err := OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j-2", "j-10", "j-1"} {
		if err := js.Save(testJobRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Debris of an interrupted commit must be swept, not recovered.
	if err := os.WriteFile(filepath.Join(dir, "j-3.json.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, _, err := js.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if strings.Join(ids, ",") != "j-1,j-10,j-2" { // lexicographic scan order
		t.Fatalf("recover order %v", ids)
	}
	if _, err := os.Stat(filepath.Join(dir, "j-3.json.tmp")); !os.IsNotExist(err) {
		t.Error("tmp debris survived recovery")
	}
}

func TestJobStoreQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	js, err := OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Save(testJobRecord("j-1")); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"j-2.json": "{not json",
		"j-3.json": `{"id":"j-wrong","state":"queued","steps":10}`,
		"j-4.json": `{"id":"j-4","state":"queued","steps":10,"steps_done":99}`,
		"j-5.json": `{"id":"j-5","steps":10}`,
		// Written before the config object: flat physics, no config.layout.
		"j-6.json": `{"id":"j-6","state":"queued","steps":10,"algorithm":"octree","dt":0.001,"layout":"flat"}`,
	}
	for name, body := range cases {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	recs, quarantined, err := js.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j-1" {
		t.Fatalf("recovered %+v, want only j-1", recs)
	}
	if len(quarantined) != len(cases) {
		t.Fatalf("quarantined %d records %v, want %d", len(quarantined), quarantined, len(cases))
	}
	for name := range cases {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Errorf("%s not moved to quarantine: %v", name, err)
		}
	}
}

func TestJobStoreDeleteIdempotent(t *testing.T) {
	js, err := OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := js.Save(testJobRecord("j-1")); err != nil {
		t.Fatal(err)
	}
	if err := js.Delete("j-1"); err != nil {
		t.Fatal(err)
	}
	if err := js.Delete("j-1"); err != nil {
		t.Fatalf("second delete: %v", err)
	}
	recs, _, err := js.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %+v after delete", recs)
	}
}

func TestJobStoreRejectsBadIDs(t *testing.T) {
	js, err := OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "j 1"} {
		rec := testJobRecord("j-1")
		rec.ID = id
		if err := js.Save(rec); err == nil {
			t.Errorf("Save accepted id %q", id)
		}
	}
}
