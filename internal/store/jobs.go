package store

// Job-record persistence for the batch job queue (internal/jobs). Each job
// is one JSON document, <id>.json, committed through the same
// write-temp/fsync/rename protocol as session checkpoints, in its own
// directory (conventionally <state-dir>/jobs) so the session recovery scan
// never mistakes a job record for a checkpoint sidecar. The record is the
// queue's durable half: a restart re-enqueues every non-terminal record and
// the simulation state itself resumes from the session checkpoint the
// record points at.

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nbody/internal/simcfg"
)

// JobRecord is the persistent form of one batch job: the resolved
// simulation it runs (generator parameters plus the effective config,
// persisted whole), the scheduling class, and the resume position (session
// ID + steps completed at the last committed chunk). State strings are
// owned by internal/jobs; the store treats them opaquely.
type JobRecord struct {
	ID       string `json:"id"`
	Class    string `json:"class"`
	State    string `json:"state"`
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`
	// Tenant is the submitting tenant's name, an echo for attribution.
	Tenant string `json:"tenant,omitempty"`
	// Config is the effective config the job was submitted with, scenario
	// echo included. Every record names config.layout; Recover quarantines
	// one that does not (written when the physics sat in flat fields).
	Config     simcfg.Effective `json:"config"`
	Steps      int              `json:"steps"`
	ChunkSteps int              `json:"chunk_steps,omitempty"`

	SessionID string `json:"session_id,omitempty"`
	StepsDone int    `json:"steps_done"`
	Attempts  int    `json:"attempts,omitempty"`
	Error     string `json:"error,omitempty"`

	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	UpdatedAt time.Time `json:"updated_at"`
}

// validateJobRecord rejects records that could not have been written by a
// well-behaved queue; recovery quarantines them instead of trusting them.
func validateJobRecord(rec JobRecord, id string) error {
	if rec.ID != id {
		return fmt.Errorf("record id %q does not match file %q", rec.ID, id)
	}
	if rec.State == "" {
		return fmt.Errorf("record %q has no state", id)
	}
	if rec.Steps <= 0 {
		return fmt.Errorf("record %q: steps %d must be > 0", id, rec.Steps)
	}
	if rec.StepsDone < 0 || rec.StepsDone > rec.Steps {
		return fmt.Errorf("record %q: steps_done %d outside [0, %d]", id, rec.StepsDone, rec.Steps)
	}
	if rec.Config.Layout == "" {
		return fmt.Errorf("record %q has no config.layout", id)
	}
	return nil
}

// JobStore is an atomic, crash-safe store of JobRecord documents rooted at
// one directory. All methods are safe for concurrent use.
type JobStore struct {
	dir string
	fs  FS
	mu  sync.Mutex
}

// OpenJobs returns a job store rooted at dir on the real filesystem,
// creating the directory (and its quarantine/ subdirectory) if needed.
func OpenJobs(dir string) (*JobStore, error) { return OpenJobsFS(dir, OSFS{}) }

// OpenJobsFS is OpenJobs with an explicit filesystem, for fault-injection
// tests.
func OpenJobsFS(dir string, fsys FS) (*JobStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty job directory")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, quarantineDir)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &JobStore{dir: dir, fs: fsys}, nil
}

// Dir returns the job store's root directory.
func (js *JobStore) Dir() string { return js.dir }

// Save commits rec atomically. UpdatedAt is stamped on every save.
func (js *JobStore) Save(rec JobRecord) error {
	if err := validID(rec.ID); err != nil {
		return err
	}
	rec.UpdatedAt = time.Now().UTC()
	if err := validateJobRecord(rec, rec.ID); err != nil {
		return fmt.Errorf("store: save job: %w", err)
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	_, _, err := commitFile(js.fs, js.dir, metaName(rec.ID), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	})
	if err != nil {
		return fmt.Errorf("store: save job %s: %w", rec.ID, err)
	}
	return js.fs.SyncDir(js.dir)
}

// Delete removes id's record. Missing files are not an error — delete is
// idempotent.
func (js *JobStore) Delete(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	js.fs.Remove(filepath.Join(js.dir, metaName(id)))
	return js.fs.SyncDir(js.dir)
}

// Recover scans the job directory: interrupted .tmp files are deleted,
// every valid record is returned sorted by ID, and corrupt or inconsistent
// records are moved to quarantine/ without failing the scan — the same
// policy as the session store's recovery.
func (js *JobStore) Recover() ([]JobRecord, []Quarantined, error) {
	js.mu.Lock()
	defer js.mu.Unlock()

	entries, err := js.fs.ReadDir(js.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".tmp"):
			js.fs.Remove(filepath.Join(js.dir, name))
		case strings.HasSuffix(name, ".json"):
			if id := strings.TrimSuffix(name, ".json"); validID(id) == nil {
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)

	var recs []JobRecord
	var quarantined []Quarantined
	for _, id := range ids {
		rec, err := js.readLocked(id)
		if err != nil {
			quarantined = append(quarantined, Quarantined{ID: id, Reason: err.Error()})
			js.fs.Rename(filepath.Join(js.dir, metaName(id)),
				filepath.Join(js.dir, quarantineDir, metaName(id)))
			continue
		}
		recs = append(recs, rec)
	}
	js.fs.SyncDir(js.dir)
	return recs, quarantined, nil
}

// readLocked parses and validates one record.
func (js *JobStore) readLocked(id string) (JobRecord, error) {
	f, err := js.fs.Open(filepath.Join(js.dir, metaName(id)))
	if err != nil {
		return JobRecord{}, err
	}
	defer f.Close()
	var rec JobRecord
	if err := json.NewDecoder(io.LimitReader(f, 1<<20)).Decode(&rec); err != nil {
		return JobRecord{}, fmt.Errorf("job record: %w", err)
	}
	if err := validateJobRecord(rec, id); err != nil {
		return JobRecord{}, err
	}
	return rec, nil
}
