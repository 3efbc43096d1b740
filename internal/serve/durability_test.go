package serve

// Acceptance tests for the durability and fault-containment layer: restart
// recovery through internal/store, quarantine of corrupt checkpoints, and
// containment of step-path panics and numerical divergence to the one
// session that caused them.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbody/internal/simcfg"
	"nbody/internal/store"
)

// newStoreManager builds a manager over a store rooted at dir; close it
// yourself when the test needs an explicit restart boundary.
func newStoreManager(t *testing.T, dir string, mutate func(*Config)) *Manager {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = st
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRestartRecoversSessions is the crash-safety acceptance test: sessions
// checkpointed by one manager must come back in a fresh manager over the
// same state directory with byte-identical snapshot state and config echo
// (restore converts through the same simcfg.Effective as create, so values
// far from the defaults — an explicit zero included — must survive), resume
// stepping at the checkpointed step, and never collide with new IDs.
func TestRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	m1 := newStoreManager(t, dir, nil)

	zero, theta, seq := 0.0, 0.3, true
	req := plummerReq(64, 5, simcfg.Config{Algorithm: "bvh", Layout: "walk", DT: 1e-3, Theta: &theta, Eps: &zero, Sequential: &seq,
		TreeReuse: &simcfg.TreeReuse{RebuildEvery: 5, RefitThreshold: 0.03}})
	req.ValidateEvery = 2
	info, err := m1.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Step(context.Background(), info.ID, 7); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := m1.WriteSnapshot(info.ID, &before); err != nil {
		t.Fatal(err)
	}
	closeManager(t, m1)

	m2 := newStoreManager(t, dir, nil)
	defer closeManager(t, m2)

	got, err := m2.Get(info.ID)
	if err != nil {
		t.Fatalf("recovered session not found: %v", err)
	}
	if got.Steps != 7 || got.N != 64 || got.Workload != "plummer" || got.Algorithm != info.Algorithm {
		t.Fatalf("recovered info %+v, want 7 steps of the original session", got)
	}
	if got.Config != info.Config || got.Config.Layout != "walk" || got.Config.Eps != 0 {
		t.Fatalf("config echo across restart:\nbefore %+v\nafter  %+v", info.Config, got.Config)
	}
	var after bytes.Buffer
	if err := m2.WriteSnapshot(info.ID, &after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("snapshot differs across restart (%d vs %d bytes)", before.Len(), after.Len())
	}

	// The recovered session resumes stepping from where it stopped.
	res, err := m2.Step(context.Background(), info.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 {
		t.Fatalf("resumed step count %d, want 10", res.Steps)
	}

	// New sessions must not reuse the recovered ID.
	fresh, err := m2.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == info.ID {
		t.Fatalf("new session reused recovered ID %s", fresh.ID)
	}
	if snap := m2.Metrics(); snap.RecoveredTotal != 1 || snap.QuarantinedTotal != 0 {
		t.Fatalf("recovery metrics %+v", snap)
	}
}

// TestRecoveryQuarantinesCorruptCheckpoints damages four of five on-disk
// checkpoints (a flipped payload byte, a truncation, metadata that names no
// force layout and metadata that names the retired kd-tree solver, neither
// of which is runnable) and requires the next boot to quarantine exactly
// those four and recover the intact one — never failing startup.
func TestRecoveryQuarantinesCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()
	m1 := newStoreManager(t, dir, nil)

	req := plummerReq(48, 0, simcfg.Config{DT: 1e-3})
	var ids [5]string
	for i := range ids {
		info, err := m1.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
		if _, err := m1.Step(context.Background(), info.ID, 2); err != nil {
			t.Fatal(err)
		}
	}
	closeManager(t, m1)

	corruptSnap(t, dir, ids[0], func(path string, data []byte) {
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptSnap(t, dir, ids[1], func(path string, data []byte) {
		if err := os.Truncate(path, int64(len(data)/2)); err != nil {
			t.Fatal(err)
		}
	})

	editMeta := func(id, old, new string) {
		t.Helper()
		metaPath := filepath.Join(dir, id+".json")
		meta, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(meta, []byte(old), []byte(new), 1)
		if bytes.Equal(edited, meta) {
			t.Fatalf("checkpoint metadata carries no %q:\n%s", old, meta)
		}
		if err := os.WriteFile(metaPath, edited, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	editMeta(ids[2], `  "layout": "flat",`+"\n", "")
	editMeta(ids[3], `"algorithm": "octree"`, `"algorithm": "kdtree"`)

	m2 := newStoreManager(t, dir, nil)
	defer closeManager(t, m2)

	for _, id := range ids[:4] {
		if _, err := m2.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("corrupt session %s after restart = %v, want ErrNotFound", id, err)
		}
	}
	good, err := m2.Get(ids[4])
	if err != nil {
		t.Fatalf("intact session lost: %v", err)
	}
	if good.Steps != 2 {
		t.Fatalf("intact session at step %d, want 2", good.Steps)
	}
	snap := m2.Metrics()
	if snap.RecoveredTotal != 1 || snap.QuarantinedTotal != 4 {
		t.Fatalf("recovered %d quarantined %d, want 1 and 4", snap.RecoveredTotal, snap.QuarantinedTotal)
	}
	for _, id := range ids[:4] {
		if kept, _ := filepath.Glob(filepath.Join(dir, "quarantine", id+".*")); len(kept) == 0 {
			t.Errorf("corrupt checkpoint %s was not moved to quarantine", id)
		}
	}
}

// corruptSnap locates id's snapshot generation file and hands it to damage.
func corruptSnap(t *testing.T, dir, id string, damage func(path string, data []byte)) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, id+".*.snap"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no snapshot files for %s (err %v)", id, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	damage(matches[0], data)
}

// TestPanicContainment is the fault-isolation acceptance test: a panic in
// one session's step path must quarantine that session alone — typed
// ErrSessionFailed, reason in Info and /metrics — while other sessions keep
// stepping on the same manager.
func TestPanicContainment(t *testing.T) {
	m := newTestManager(t, testConfig())
	victim, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	m.stepHook = func(s *Session) {
		if s.ID == victim.ID {
			panic("injected solver fault")
		}
	}

	if _, err := m.Step(context.Background(), victim.ID, 3); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("panicking step = %v, want ErrSessionFailed", err)
	}
	// Quarantine is sticky: the next step is refused without running.
	if _, err := m.Step(context.Background(), victim.ID, 1); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("step on quarantined session = %v, want ErrSessionFailed", err)
	}
	in, err := m.Get(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != StateFailed.String() || !strings.Contains(in.FailReason, "injected solver fault") {
		t.Fatalf("quarantined info %+v", in)
	}
	// The failure is visible in /metrics, attributed to its kind.
	snap := m.Metrics()
	if snap.FailedTotal != 1 || snap.FailuresByReason[failPanic] != 1 {
		t.Fatalf("failure metrics %+v", snap)
	}
	if reason := snap.FailedSessions[victim.ID]; !strings.Contains(reason, "injected solver fault") {
		t.Fatalf("failed_sessions = %+v", snap.FailedSessions)
	}

	// Containment: the other session (and new ones) step normally.
	if _, err := m.Step(context.Background(), healthy.ID, 3); err != nil {
		t.Fatalf("healthy session after neighbour panic: %v", err)
	}
	// The quarantined session's data stays readable.
	var buf bytes.Buffer
	if err := m.WriteSnapshot(victim.ID, &buf); err != nil {
		t.Fatalf("snapshot of quarantined session: %v", err)
	}
}

// TestNaNQuarantine injects a NaN position into one session and requires
// the per-step watchdog to quarantine it on the next step while a second
// session is unaffected.
func TestNaNQuarantine(t *testing.T) {
	m := newTestManager(t, testConfig())
	victim, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}

	s, err := m.lookup(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.sim.System().PosX[0] = math.NaN()
	s.mu.Unlock()

	_, err = m.Step(context.Background(), victim.ID, 5)
	if !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("NaN step = %v, want ErrSessionFailed", err)
	}
	in, _ := m.Get(victim.ID)
	if in.State != StateFailed.String() || !strings.Contains(in.FailReason, "non-finite") {
		t.Fatalf("NaN quarantine info %+v", in)
	}
	if snap := m.Metrics(); snap.FailuresByReason[failNonFinite] != 1 {
		t.Fatalf("failure metrics %+v", snap)
	}
	if _, err := m.Step(context.Background(), healthy.ID, 3); err != nil {
		t.Fatalf("healthy session after neighbour NaN: %v", err)
	}
}

// TestEnergyDriftQuarantine perturbs a session's kinetic energy far past
// the configured limit and requires the next diagnostics sample to
// quarantine it against the baseline pinned at creation.
func TestEnergyDriftQuarantine(t *testing.T) {
	cfg := testConfig()
	cfg.MaxEnergyDrift = 0.5
	m := newTestManager(t, cfg)
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	// A healthy first request passes the watchdog.
	if _, err := m.Step(context.Background(), info.ID, 1); err != nil {
		t.Fatal(err)
	}
	// Blow the kinetic energy up by orders of magnitude.
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sys := s.sim.System()
	for i := range sys.VelX {
		sys.VelX[i] += 1e3
	}
	s.mu.Unlock()

	_, err = m.Step(context.Background(), info.ID, 1)
	if !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("diverged step = %v, want ErrSessionFailed", err)
	}
	in, _ := m.Get(info.ID)
	if !strings.Contains(in.FailReason, "energy drift") {
		t.Fatalf("drift quarantine info %+v", in)
	}
	if snap := m.Metrics(); snap.FailuresByReason[failEnergyDrift] != 1 {
		t.Fatalf("failure metrics %+v", snap)
	}
}

// TestFailedSessionSurvivesRestartQuarantined: a session quarantined before
// a restart must come back quarantined — its last good checkpoint is
// readable, but it will not step again.
func TestFailedSessionSurvivesRestartQuarantined(t *testing.T) {
	dir := t.TempDir()
	m1 := newStoreManager(t, dir, nil)
	info, err := m1.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Step(context.Background(), info.ID, 4); err != nil {
		t.Fatal(err)
	}
	m1.stepHook = func(*Session) { panic("pre-restart fault") }
	if _, err := m1.Step(context.Background(), info.ID, 1); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("injected fault = %v, want ErrSessionFailed", err)
	}
	closeManager(t, m1)

	m2 := newStoreManager(t, dir, nil)
	defer closeManager(t, m2)
	in, err := m2.Get(info.ID)
	if err != nil {
		t.Fatalf("failed session lost across restart: %v", err)
	}
	if in.State != StateFailed.String() || !strings.Contains(in.FailReason, "pre-restart fault") {
		t.Fatalf("restored quarantine info %+v", in)
	}
	// The last checkpoint before the failure (step 4) is what survived.
	if in.Steps != 4 {
		t.Fatalf("restored at step %d, want the last good checkpoint at 4", in.Steps)
	}
	if _, err := m2.Step(context.Background(), info.ID, 1); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("step on restored quarantined session = %v, want ErrSessionFailed", err)
	}
}

// TestEvictionPersistsCheckpoint: TTL eviction must persist a dirty session
// before dropping it from memory, so a later restart restores it.
func TestEvictionPersistsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m1 := newStoreManager(t, dir, nil)
	info, err := m1.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Step(context.Background(), info.ID, 6); err != nil {
		t.Fatal(err)
	}
	s, err := m1.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend the request-end checkpoint was missed (as a crash between
	// checkpoints would), so eviction itself must do the persisting.
	s.mu.Lock()
	s.savedStep = -1
	s.mu.Unlock()
	s.lastUsed.Store(time.Now().Add(-2 * m1.cfg.IdleTTL).UnixNano())
	if n := m1.evictExpired(1); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, err := m1.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted session still resolvable: %v", err)
	}
	closeManager(t, m1)

	m2 := newStoreManager(t, dir, nil)
	defer closeManager(t, m2)
	in, err := m2.Get(info.ID)
	if err != nil {
		t.Fatalf("evicted session not restored: %v", err)
	}
	if in.Steps != 6 {
		t.Fatalf("restored at step %d, want 6", in.Steps)
	}
}

// TestCheckpointEveryMidRun verifies the mid-run checkpoint policy: with
// CheckpointEvery=5, a 12-step request checkpoints at create, steps 5 and
// 10 mid-run, and at request end.
func TestCheckpointEveryMidRun(t *testing.T) {
	dir := t.TempDir()
	m := newStoreManager(t, dir, func(c *Config) { c.CheckpointEvery = 5 })
	defer closeManager(t, m)
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 12); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics()
	if snap.CheckpointsTotal != 4 || snap.CheckpointErrors != 0 {
		t.Fatalf("checkpoints %d (errors %d), want 4 and 0", snap.CheckpointsTotal, snap.CheckpointErrors)
	}
	meta, _, err := m.cfg.Store.Load(info.ID, m.cfg.MaxBodies)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 12 {
		t.Fatalf("final checkpoint at step %d, want 12", meta.Step)
	}
}

// TestDeleteRemovesCheckpoint: delete is the one operation that removes
// checkpoint files — a deleted session must not come back after restart.
func TestDeleteRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m1 := newStoreManager(t, dir, nil)
	info, err := m1.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Step(context.Background(), info.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := m1.Delete(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	closeManager(t, m1)

	m2 := newStoreManager(t, dir, nil)
	defer closeManager(t, m2)
	if _, err := m2.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session resurrected: %v", err)
	}
	if snap := m2.Metrics(); snap.RecoveredTotal != 0 || snap.QuarantinedTotal != 0 {
		t.Fatalf("recovery metrics after delete %+v", snap)
	}
}
