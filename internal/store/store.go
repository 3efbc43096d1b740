// Package store persists simulation sessions so the serving layer survives
// a process crash, OOM-kill or deploy restart. Each session is one
// checkpoint on disk:
//
//	<id>.json        sidecar metadata (params, step, time, lifecycle state)
//	<id>.<step>.snap snapshot payload (internal/snapshot wire format,
//	                 carrying its own checksum)
//
// Writes follow a crash-safe commit protocol: every file is written to a
// .tmp sibling, fsynced, closed, then renamed into place, and the metadata
// rename is the commit point — it happens only after the snapshot it
// references is durable, so a crash at any instant leaves either the old
// checkpoint or the new one fully intact, never a torn mixture. A startup
// recovery scan restores every valid session, deletes interrupted .tmp
// debris and superseded snapshots, and moves anything corrupt, truncated
// or inconsistent into a quarantine/ subdirectory instead of failing boot.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nbody/internal/body"
	"nbody/internal/snapshot"
)

// quarantineDir is the subdirectory corrupt files are moved into.
const quarantineDir = "quarantine"

// Meta is the sidecar metadata of one checkpoint: everything needed to
// rebuild the session's core.Sim plus its resume position. The physics
// parameters are stored resolved (no zero-means-default indirection).
type Meta struct {
	ID         string  `json:"id"`
	Algorithm  string  `json:"algorithm"`
	Workload   string  `json:"workload,omitempty"`
	Seed       uint64  `json:"seed"`
	DT         float64 `json:"dt"`
	Theta      float64 `json:"theta"`
	Eps        float64 `json:"eps"`
	G          float64 `json:"g"`
	Sequential bool    `json:"sequential,omitempty"`
	// Tenant is the owning tenant's name and Scenario the scenario-pack
	// name the session was created from; both are attribution echoes so a
	// restart restores quota accounting and the config echo.
	Tenant   string `json:"tenant,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Layout is the force-evaluation layout ("flat" or "walk"). Every
	// checkpoint names it; the serving layer quarantines one that does not.
	Layout       string `json:"layout,omitempty"`
	RebuildEvery int    `json:"rebuild_every,omitempty"`
	// RefitThreshold is the adaptive tree-reuse threshold (0 = rebuild on
	// the RebuildEvery cadence).
	RefitThreshold float64 `json:"refit_threshold,omitempty"`
	// Pipeline records the session's scheduling preference (phase-graph
	// pipelined stepping) so a restart resumes it on the same path.
	Pipeline      bool    `json:"pipeline,omitempty"`
	ValidateEvery int     `json:"validate_every,omitempty"`
	N             int     `json:"n"`
	Step          int     `json:"step"`
	Time          float64 `json:"time"`
	// State is the session lifecycle state at save time: "ok" for a live
	// session, "failed" for one quarantined after a panic or numerical
	// divergence (FailReason then says why).
	State      string    `json:"state"`
	FailReason string    `json:"fail_reason,omitempty"`
	SavedAt    time.Time `json:"saved_at"`
	// Snapshot is the payload filename this metadata commits to.
	Snapshot string `json:"snapshot"`
}

// StateOK and StateFailed are the legal Meta.State values.
const (
	StateOK     = "ok"
	StateFailed = "failed"
)

// Store is an atomic, crash-safe on-disk session store rooted at one
// directory. All methods are safe for concurrent use.
type Store struct {
	dir string
	fs  FS
	mu  sync.Mutex // serializes multi-file commits; also guards obs
	obs Observer
}

// Observer receives the store's operational measurements. The store stays
// free of any metrics dependency; the serving layer adapts these callbacks
// into its observability registry. Implementations must be safe for
// concurrent use.
type Observer interface {
	// CommitObserved reports one atomic file commit. file is "snapshot"
	// or "metadata"; fsyncSeconds and renameSeconds are the durations of
	// the commit's fsync and rename syscalls (zero for stages never
	// reached); err is non-nil when the commit failed at any stage.
	CommitObserved(file string, fsyncSeconds, renameSeconds float64, err error)
}

// SetObserver installs o (nil to remove). Call before the store is shared.
func (st *Store) SetObserver(o Observer) {
	st.mu.Lock()
	st.obs = o
	st.mu.Unlock()
}

// Recovered is one session restored by the startup scan.
type Recovered struct {
	Meta Meta
	Sys  *body.System
}

// Quarantined describes one session whose on-disk state could not be
// trusted; its files were moved to the quarantine/ subdirectory.
type Quarantined struct {
	ID     string
	Reason string
}

// Open returns a store rooted at dir on the real filesystem, creating the
// directory (and its quarantine/ subdirectory) if needed.
func Open(dir string) (*Store, error) { return OpenFS(dir, OSFS{}) }

// OpenFS is Open with an explicit filesystem, for fault-injection tests.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, quarantineDir)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// maxIDLen bounds session and job IDs; IDs become file names, and path
// components have platform limits well above this.
const maxIDLen = 128

// ValidID rejects session and job IDs that could escape the state
// directory or collide with the store's own file naming: only ASCII
// letters, digits, '-' and '_' are allowed, at most 128 characters. It is
// exported because the serving layer accepts client-requested IDs (the
// router tier mints them) and must vet them with exactly the rules the
// store enforces before they ever reach a file name.
func ValidID(id string) error {
	if id == "" {
		return errors.New("store: empty id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("store: id %q exceeds %d characters", id[:16]+"…", maxIDLen)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("store: id %q contains %q", id, r)
		}
	}
	return nil
}

// validID is the historical internal name of ValidID.
func validID(id string) error { return ValidID(id) }

// IDs mints and orders one manager's own IDs: "<kind>-<n>" (kind "s" for
// sessions, "j" for jobs), or "<shard>-<kind>-<n>" on a named replica so
// IDs minted by different replicas behind a router never collide.
type IDs struct{ prefix string }

// NewIDs returns the ID scheme of one kind on one shard ("" = unsharded).
func NewIDs(kind, shard string) IDs {
	if shard != "" {
		kind = shard + "-" + kind
	}
	return IDs{prefix: kind + "-"}
}

// Mint formats the ID with sequence number n.
func (p IDs) Mint(n uint64) string { return p.prefix + strconv.FormatUint(n, 10) }

// Seq is the inverse of Mint. It reports false for a foreign ID — one the
// router minted or another shard's — which recovery must not advance the
// counter past.
func (p IDs) Seq(id string) (uint64, bool) {
	suffix, ok := strings.CutPrefix(id, p.prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(suffix, 10, 64)
	return n, err == nil
}

// Less orders IDs for listings: minted IDs numerically by sequence number,
// foreign IDs lexicographically after them.
func (p IDs) Less(a, b string) bool {
	an, aok := p.Seq(a)
	bn, bok := p.Seq(b)
	if aok != bok {
		return aok
	}
	if aok && an != bn {
		return an < bn
	}
	return a < b
}

// validateMeta checks a metadata document against id and the service's body
// limit before any payload is trusted.
func validateMeta(meta Meta, id string, maxBodies int) error {
	if meta.ID != id {
		return fmt.Errorf("metadata id %q does not match file %q", meta.ID, id)
	}
	if meta.State != StateOK && meta.State != StateFailed {
		return fmt.Errorf("unknown state %q", meta.State)
	}
	if meta.N <= 0 {
		return fmt.Errorf("body count %d must be > 0", meta.N)
	}
	if maxBodies > 0 && meta.N > maxBodies {
		return fmt.Errorf("body count %d exceeds limit %d", meta.N, maxBodies)
	}
	if !(meta.DT > 0) || math.IsInf(meta.DT, 0) {
		return fmt.Errorf("dt %v must be positive and finite", meta.DT)
	}
	if meta.Step < 0 {
		return fmt.Errorf("negative step %d", meta.Step)
	}
	if math.IsNaN(meta.Time) || math.IsInf(meta.Time, 0) {
		return fmt.Errorf("non-finite time %v", meta.Time)
	}
	if meta.Snapshot != snapName(id, meta.Step) {
		return fmt.Errorf("snapshot reference %q is not %q", meta.Snapshot, snapName(id, meta.Step))
	}
	return nil
}

func snapName(id string, step int) string { return fmt.Sprintf("%s.%d.snap", id, step) }
func metaName(id string) string           { return id + ".json" }

// writeFileAtomic writes data through the write-to-temp + fsync + rename
// protocol. The rename is the only visible transition. It is always called
// under st.mu (which also guards st.obs).
func (st *Store) writeFileAtomic(name string, write func(io.Writer) error) (err error) {
	var fsyncD, renameD time.Duration
	if st.obs != nil {
		defer func() {
			st.obs.CommitObserved(commitFileKind(name), fsyncD.Seconds(), renameD.Seconds(), err)
		}()
	}
	fsyncD, renameD, err = commitFile(st.fs, st.dir, name, write)
	return err
}

// commitFile is the commit protocol shared by the session and job stores:
// write to a .tmp sibling, fsync, close, rename into place. The rename is
// the only visible transition, so a crash at any instant leaves either the
// old file or the new one, never a torn mixture. It reports the fsync and
// rename durations for the caller's observability hooks.
func commitFile(fsys FS, dir, name string, write func(io.Writer) error) (fsyncD, renameD time.Duration, err error) {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, 0, err
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, 0, err
	}
	fsyncD = time.Since(start)
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fsyncD, 0, err
	}
	start = time.Now()
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fsyncD, 0, err
	}
	renameD = time.Since(start)
	return fsyncD, renameD, nil
}

// commitFileKind classifies a committed file for the observer by the
// store's own naming scheme.
func commitFileKind(name string) string {
	if strings.HasSuffix(name, ".snap") {
		return "snapshot"
	}
	return "metadata"
}

// Save commits one checkpoint: snapshot payload first, metadata second (the
// commit point), directory fsync last, then superseded snapshot
// generations are deleted. A crash or injected failure at any point leaves
// the previous checkpoint loadable.
func (st *Store) Save(meta Meta, sys *body.System) error {
	if err := validID(meta.ID); err != nil {
		return err
	}
	if meta.State == "" {
		meta.State = StateOK
	}
	if meta.SavedAt.IsZero() {
		meta.SavedAt = time.Now().UTC()
	}
	meta.N = sys.N()
	meta.Snapshot = snapName(meta.ID, meta.Step)
	if err := validateMeta(meta, meta.ID, 0); err != nil {
		return fmt.Errorf("store: save %s: %w", meta.ID, err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()

	err := st.writeFileAtomic(meta.Snapshot, func(w io.Writer) error {
		return snapshot.Write(w, sys, snapshot.Meta{Step: meta.Step, Time: meta.Time})
	})
	if err != nil {
		return fmt.Errorf("store: save %s: snapshot: %w", meta.ID, err)
	}

	if err := st.writeMetaLocked(meta); err != nil {
		return fmt.Errorf("store: save %s: metadata: %w", meta.ID, err)
	}

	// The checkpoint is committed; anything further is cleanup.
	st.removeSnapsLocked(meta.ID, meta.Snapshot)
	return nil
}

// writeMetaLocked commits a metadata document and fsyncs the directory.
func (st *Store) writeMetaLocked(meta Meta) error {
	if err := st.writeFileAtomic(metaName(meta.ID), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	}); err != nil {
		return err
	}
	return st.fs.SyncDir(st.dir)
}

// removeSnapsLocked deletes every snapshot generation of id except keep
// (best effort — leftovers are swept by the next recovery scan).
func (st *Store) removeSnapsLocked(id, keep string) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == keep {
			continue
		}
		if owner, _, ok := parseSnapName(name); ok && owner == id {
			st.fs.Remove(filepath.Join(st.dir, name))
		}
	}
}

// parseSnapName splits "<id>.<step>.snap" into its parts.
func parseSnapName(name string) (id string, step int, ok bool) {
	rest, found := strings.CutSuffix(name, ".snap")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 {
		return "", 0, false
	}
	step, err := strconv.Atoi(rest[i+1:])
	if err != nil || step < 0 {
		return "", 0, false
	}
	return rest[:i], step, true
}

// MarkFailed rewrites id's metadata with State "failed" and the given
// reason, keeping the last good snapshot payload, so a restart restores the
// session quarantined rather than silently re-running a diverged state.
func (st *Store) MarkFailed(id, reason string) error {
	if err := validID(id); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	meta, err := st.readMetaLocked(id)
	if err != nil {
		return fmt.Errorf("store: mark failed %s: %w", id, err)
	}
	meta.State = StateFailed
	meta.FailReason = reason
	meta.SavedAt = time.Now().UTC()
	if err := st.writeMetaLocked(meta); err != nil {
		return fmt.Errorf("store: mark failed %s: %w", id, err)
	}
	return nil
}

// readMetaLocked parses id's metadata document.
func (st *Store) readMetaLocked(id string) (Meta, error) {
	f, err := st.fs.Open(filepath.Join(st.dir, metaName(id)))
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	var meta Meta
	dec := json.NewDecoder(io.LimitReader(f, 1<<20))
	if err := dec.Decode(&meta); err != nil {
		return Meta{}, fmt.Errorf("metadata: %w", err)
	}
	return meta, nil
}

// Load reads id's checkpoint, verifying the metadata, the snapshot checksum
// and their cross-consistency. maxBodies bounds the allocation a forged
// header can trigger (<= 0 for no bound).
func (st *Store) Load(id string, maxBodies int) (Meta, *body.System, error) {
	if err := validID(id); err != nil {
		return Meta{}, nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.loadLocked(id, maxBodies)
}

func (st *Store) loadLocked(id string, maxBodies int) (Meta, *body.System, error) {
	meta, err := st.readMetaLocked(id)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	if err := validateMeta(meta, id, maxBodies); err != nil {
		return Meta{}, nil, fmt.Errorf("store: load %s: metadata: %w", id, err)
	}
	f, err := st.fs.Open(filepath.Join(st.dir, meta.Snapshot))
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	defer f.Close()
	sys, snapMeta, err := snapshot.ReadMax(f, maxBodies)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: load %s: snapshot: %w", id, err)
	}
	if sys.N() != meta.N {
		return Meta{}, nil, fmt.Errorf("store: load %s: snapshot holds %d bodies, metadata says %d", id, sys.N(), meta.N)
	}
	if snapMeta.Step != meta.Step {
		return Meta{}, nil, fmt.Errorf("store: load %s: snapshot at step %d, metadata says %d", id, snapMeta.Step, meta.Step)
	}
	if err := sys.Validate(); err != nil {
		return Meta{}, nil, fmt.Errorf("store: load %s: snapshot state: %w", id, err)
	}
	return meta, sys, nil
}

// Delete removes id's checkpoint files. Missing files are not an error —
// delete is idempotent.
func (st *Store) Delete(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fs.Remove(filepath.Join(st.dir, metaName(id)))
	st.removeSnapsLocked(id, "")
	return st.fs.SyncDir(st.dir)
}

// Recover scans the state directory: interrupted .tmp files are deleted,
// every valid checkpoint is loaded, superseded snapshot generations are
// swept, and any session whose files are corrupt, truncated or mutually
// inconsistent is quarantined (files moved to quarantine/) without failing
// the scan. Results are sorted by session ID for determinism.
func (st *Store) Recover(maxBodies int) ([]Recovered, []Quarantined, error) {
	st.mu.Lock()
	defer st.mu.Unlock()

	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: recover: %w", err)
	}

	metaIDs := make(map[string]bool)
	snaps := make(map[string][]string) // id -> snapshot filenames
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Debris of a checkpoint interrupted mid-write; the commit
			// point was never reached, so it is safe to delete.
			st.fs.Remove(filepath.Join(st.dir, name))
		case strings.HasSuffix(name, ".json"):
			id := strings.TrimSuffix(name, ".json")
			if validID(id) == nil {
				metaIDs[id] = true
			}
		default:
			if id, _, ok := parseSnapName(name); ok && validID(id) == nil {
				snaps[id] = append(snaps[id], name)
			}
		}
	}

	var recovered []Recovered
	var quarantined []Quarantined
	ids := make([]string, 0, len(metaIDs))
	for id := range metaIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, id := range ids {
		meta, sys, err := st.loadLocked(id, maxBodies)
		if err != nil {
			quarantined = append(quarantined, Quarantined{ID: id, Reason: err.Error()})
			st.quarantineLocked(id, snaps[id])
			delete(snaps, id)
			continue
		}
		recovered = append(recovered, Recovered{Meta: meta, Sys: sys})
		// Sweep snapshot generations the committed metadata does not
		// reference (an interrupted checkpoint renamed its payload but
		// crashed before the metadata commit).
		for _, name := range snaps[id] {
			if name != meta.Snapshot {
				st.fs.Remove(filepath.Join(st.dir, name))
			}
		}
		delete(snaps, id)
	}

	// Snapshot payloads with no metadata at all: the session can't be
	// trusted or rebuilt, but the bytes may still matter to an operator.
	orphans := make([]string, 0, len(snaps))
	for id := range snaps {
		orphans = append(orphans, id)
	}
	sort.Strings(orphans)
	for _, id := range orphans {
		quarantined = append(quarantined, Quarantined{ID: id, Reason: "snapshot payload without metadata"})
		st.quarantineLocked(id, snaps[id])
	}

	st.fs.SyncDir(st.dir)
	return recovered, quarantined, nil
}

// Quarantine moves id's metadata and snapshot files into the quarantine/
// subdirectory. The serving layer uses it when a checkpoint parses cleanly
// but cannot be turned back into a runnable session (e.g. an algorithm
// name this build does not know).
func (st *Store) Quarantine(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("store: quarantine %s: %w", id, err)
	}
	var snapFiles []string
	for _, e := range entries {
		if owner, _, ok := parseSnapName(e.Name()); ok && owner == id {
			snapFiles = append(snapFiles, e.Name())
		}
	}
	st.quarantineLocked(id, snapFiles)
	return st.fs.SyncDir(st.dir)
}

// quarantineLocked moves id's metadata and the given snapshot files into
// the quarantine/ subdirectory (best effort).
func (st *Store) quarantineLocked(id string, snapFiles []string) {
	names := append([]string{metaName(id)}, snapFiles...)
	for _, name := range names {
		src := filepath.Join(st.dir, name)
		dst := filepath.Join(st.dir, quarantineDir, name)
		st.fs.Rename(src, dst)
	}
}
