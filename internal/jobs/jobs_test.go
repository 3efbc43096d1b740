package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbody/internal/simcfg"
	"nbody/internal/store"
)

// fakeSession is one simulated session owned by fakeRunner.
type fakeSession struct {
	spec  Spec
	eff   simcfg.Effective
	steps int
}

// fakeRunner implements Runner in memory. stepHook, when set, runs at the
// start of every StepSession call with a 1-based global call index; a
// non-nil error is returned to the executor with zero progress.
type fakeRunner struct {
	mu       sync.Mutex
	nextID   int
	sessions map[string]*fakeSession
	created  []string // workloads in creation order
	deleted  []string

	validateErr error
	createErr   error
	stepHook    func(ctx context.Context, call int, sid string, n int) error
	calls       atomic.Int64
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{sessions: make(map[string]*fakeSession)}
}

func (f *fakeRunner) ValidateSession(spec Spec) error { return f.validateErr }

func (f *fakeRunner) CreateSession(ctx context.Context, spec Spec, eff simcfg.Effective) (string, error) {
	if f.createErr != nil {
		return "", f.createErr
	}
	// Like the real runner, refuse a config the engine cannot be built from.
	if _, err := eff.CoreConfig(); err != nil {
		return "", err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	id := fmt.Sprintf("fs-%d", f.nextID)
	f.sessions[id] = &fakeSession{spec: spec, eff: eff}
	f.created = append(f.created, spec.Workload)
	return id, nil
}

func (f *fakeRunner) StepSession(ctx context.Context, id string, n int) (int, error) {
	f.mu.Lock()
	s, ok := f.sessions[id]
	f.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("fake: no session %s", id)
	}
	call := int(f.calls.Add(1))
	if f.stepHook != nil {
		if err := f.stepHook(ctx, call, id, n); err != nil {
			return 0, err
		}
	}
	f.mu.Lock()
	s.steps += n
	f.mu.Unlock()
	return n, nil
}

func (f *fakeRunner) SessionSteps(id string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sessions[id]
	if !ok {
		return 0, fmt.Errorf("fake: no session %s", id)
	}
	return s.steps, nil
}

func (f *fakeRunner) WriteSnapshot(id string, w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sessions[id]
	if !ok {
		return fmt.Errorf("fake: no session %s", id)
	}
	fmt.Fprintf(w, "snap:%s:%d", id, s.steps)
	return nil
}

func (f *fakeRunner) WriteTrace(id string, w io.Writer) error {
	fmt.Fprintf(w, "trace:%s", id)
	return nil
}

func (f *fakeRunner) DeleteSession(ctx context.Context, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.sessions, id)
	f.deleted = append(f.deleted, id)
	return nil
}

func (f *fakeRunner) createdOrder() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.created...)
}

// newTestManager starts a manager over cfg (filling fast test defaults)
// and registers a drain on test cleanup.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitState(t *testing.T, m *Manager, id string, want State) Info {
	t.Helper()
	var info Info
	waitUntil(t, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		var err error
		info, err = m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		return info.State == want
	})
	return info
}

// effective resolves cfg the way Submit would, for tests that seed the
// store with hand-written records.
func effective(t *testing.T, cfg simcfg.Config) simcfg.Effective {
	t.Helper()
	eff, err := (&simcfg.Spec{Config: &cfg}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return eff
}

func spec(workload string, steps int) Spec {
	return Spec{
		Spec:  simcfg.Spec{Workload: workload, N: 32, Config: &simcfg.Config{DT: 1e-3}},
		Steps: steps,
	}
}

func TestJobLifecycleSucceeds(t *testing.T) {
	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	s := spec("plummer", 10)
	s.ChunkSteps = 4
	info, err := m.Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "j-1" || info.State != StateQueued || info.Class != ClassNormal {
		t.Fatalf("submit info %+v", info)
	}

	done := waitState(t, m, info.ID, StateSucceeded)
	if done.StepsDone != 10 {
		t.Errorf("steps_done = %d, want 10", done.StepsDone)
	}
	if done.SessionID == "" || done.Started.IsZero() || done.Finished.IsZero() {
		t.Errorf("terminal info incomplete: %+v", done)
	}
	if got, _ := f.SessionSteps(done.SessionID); got != 10 {
		t.Errorf("session stepped %d, want 10", got)
	}
	// Chunked: 10 steps at chunk 4 is 3 StepSession calls (4+4+2).
	if calls := f.calls.Load(); calls != 3 {
		t.Errorf("StepSession called %d times, want 3", calls)
	}
	if v := m.ins.finished.With(string(StateSucceeded)).Value(); v != 1 {
		t.Errorf("finished{succeeded} = %v, want 1", v)
	}
	if m.ins.waitSeconds.With(ClassNormal).Count() != 1 || m.ins.runSeconds.With(ClassNormal).Count() != 1 {
		t.Error("wait/run histograms not fed")
	}
}

func TestSubmitValidation(t *testing.T) {
	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, MaxJobSteps: 100})

	cases := []Spec{
		func() Spec { s := spec("plummer", 10); s.Class = "urgent"; return s }(),
		spec("plummer", 0),
		spec("plummer", 101),
		func() Spec { s := spec("plummer", 10); s.ChunkSteps = -1; return s }(),
	}
	for i, s := range cases {
		if _, err := m.Submit(context.Background(), s); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}

	f.validateErr = errors.New("no such workload")
	if _, err := m.Submit(context.Background(), spec("nope", 10)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("validate err = %v, want ErrBadRequest", err)
	}
}

// blockingRunner returns a fake whose first session ("primer" workload)
// blocks inside StepSession until release is closed; other jobs run free.
func primedRunner(release <-chan struct{}, started chan<- struct{}) *fakeRunner {
	f := newFakeRunner()
	var once sync.Once
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		f.mu.Lock()
		w := f.sessions[sid].spec.Workload
		f.mu.Unlock()
		if w == "primer" {
			once.Do(func() { close(started) })
			<-release
		}
		return nil
	}
	return f
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1, MaxQueue: 2})

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(context.Background(), spec("free", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(context.Background(), spec("free", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if v := m.ins.rejected.Value(); v != 1 {
		t.Errorf("rejected = %v, want 1", v)
	}
	close(release)
}

func TestWeightedFairScheduling(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1, MaxQueue: 16})

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started

	// Backlog all three classes behind the blocked worker: 4 high, 2
	// normal, 1 low, matching one full smooth-WRR cycle at weights 4:2:1.
	submit := func(workload, class string) {
		s := spec(workload, 1)
		s.Class = class
		if _, err := m.Submit(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	submit("h1", ClassHigh)
	submit("h2", ClassHigh)
	submit("h3", ClassHigh)
	submit("h4", ClassHigh)
	submit("n1", ClassNormal)
	submit("n2", ClassNormal)
	submit("l1", ClassLow)
	close(release)

	waitUntil(t, "all jobs to finish", func() bool {
		for _, info := range m.List() {
			if !info.State.Terminal() {
				return false
			}
		}
		return true
	})
	got := strings.Join(f.createdOrder(), " ")
	want := "primer h1 n1 h2 l1 h3 n2 h4"
	if got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	f := newFakeRunner()
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		if call <= 2 {
			return fmt.Errorf("%w: slot contention", ErrTransient)
		}
		return nil
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1, MaxRetries: 3})

	info, err := m.Submit(context.Background(), spec("plummer", 5))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateSucceeded)
	if done.StepsDone != 5 || done.Attempts != 0 {
		t.Errorf("final info %+v: want 5 steps, attempts reset to 0", done)
	}
	if v := m.ins.retries.Value(); v != 2 {
		t.Errorf("retries = %v, want 2", v)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	f := newFakeRunner()
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		return fmt.Errorf("%w: always busy", ErrTransient)
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1, MaxRetries: 2})

	info, err := m.Submit(context.Background(), spec("plummer", 5))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateFailed)
	if !strings.Contains(done.Error, "transient fault persisted after 2 retries") {
		t.Errorf("error = %q", done.Error)
	}
	if v := m.ins.retries.Value(); v != 2 {
		t.Errorf("retries = %v, want 2", v)
	}
}

func TestPermanentFailure(t *testing.T) {
	f := newFakeRunner()
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		return errors.New("non-finite position")
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	info, err := m.Submit(context.Background(), spec("plummer", 5))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateFailed)
	if done.Error != "non-finite position" {
		t.Errorf("error = %q", done.Error)
	}
	if v := m.ins.retries.Value(); v != 0 {
		t.Errorf("retries = %v, want 0 (permanent faults must not retry)", v)
	}
}

func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(context.Background(), spec("victim", 1))
	if err != nil {
		t.Fatal(err)
	}

	info, deleted, err := m.Cancel(context.Background(), queued.ID)
	if err != nil || deleted {
		t.Fatalf("Cancel: info=%+v deleted=%v err=%v", info, deleted, err)
	}
	if info.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", info.State)
	}
	close(release)

	// The cancelled job must never run.
	waitUntil(t, "primer to finish", func() bool {
		infos := m.List()
		return infos[0].State == StateSucceeded
	})
	for _, w := range f.createdOrder() {
		if w == "victim" {
			t.Error("cancelled job was executed")
		}
	}
}

func TestCancelRunning(t *testing.T) {
	f := newFakeRunner()
	started := make(chan struct{})
	var once sync.Once
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		if call == 1 {
			return nil // commit one chunk of progress first
		}
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	s := spec("plummer", 100)
	s.ChunkSteps = 10
	info, err := m.Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := m.Cancel(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateCancelled)
	if done.StepsDone != 10 {
		t.Errorf("steps_done = %d, want the 10 committed before cancel", done.StepsDone)
	}
	// Partial artifacts stay downloadable.
	var buf bytes.Buffer
	if err := m.WriteSnapshot(info.ID, &buf); err != nil {
		t.Fatalf("WriteSnapshot after cancel: %v", err)
	}
}

func TestCancelTerminalDeletes(t *testing.T) {
	f := newFakeRunner()
	js, err := store.OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1, Store: js})

	info, err := m.Submit(context.Background(), spec("plummer", 3))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateSucceeded)

	_, deleted, err := m.Cancel(context.Background(), info.ID)
	if err != nil || !deleted {
		t.Fatalf("Cancel terminal: deleted=%v err=%v", deleted, err)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	waitUntil(t, "session and record cleanup", func() bool {
		f.mu.Lock()
		gone := len(f.deleted) == 1 && f.deleted[0] == done.SessionID
		f.mu.Unlock()
		recs, _, err := js.Recover()
		return gone && err == nil && len(recs) == 0
	})
	if _, _, err := m.Cancel(context.Background(), info.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("second cancel: %v", err)
	}
}

func TestArtifactErrors(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(context.Background(), spec("waiting", 1))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.WriteSnapshot(queued.ID, &buf); !errors.Is(err, ErrNotReady) {
		t.Errorf("snapshot of queued job: %v, want ErrNotReady", err)
	}
	if err := m.WriteTrace("j-404", &buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("trace of unknown job: %v, want ErrNotFound", err)
	}
	close(release)

	waitState(t, m, queued.ID, StateSucceeded)
	buf.Reset()
	if err := m.WriteSnapshot(queued.ID, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "snap:") {
		t.Errorf("snapshot body %q", buf.String())
	}
}

func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	js, err := store.OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeRunner()
	progressed := make(chan struct{})
	var once sync.Once
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		if call == 1 {
			return nil // one committed chunk of progress
		}
		once.Do(func() { close(progressed) })
		<-ctx.Done() // park until drain interrupts the chunk
		return ctx.Err()
	}

	m1, err := NewManager(Config{Runner: f, Workers: 1, Store: js, ChunkSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m1.Submit(context.Background(), spec("plummer", 30))
	if err != nil {
		t.Fatal(err)
	}
	<-progressed

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := m1.ins.requeued.Value(); v != 1 {
		t.Errorf("requeued = %v, want 1", v)
	}
	recs, _, err := js.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v %+v", err, recs)
	}
	if recs[0].State != string(StateQueued) || recs[0].StepsDone != 10 {
		t.Fatalf("persisted record %+v: want queued at steps_done 10", recs[0])
	}

	// Restart: same store, runner now healthy. The job must resume from
	// the session's recovered position and finish the remaining steps.
	f.stepHook = nil
	m2 := newTestManager(t, Config{Runner: f, Workers: 1, Store: js, ChunkSteps: 10})
	done := waitState(t, m2, info.ID, StateSucceeded)
	if done.StepsDone != 30 {
		t.Errorf("steps_done = %d, want 30", done.StepsDone)
	}
	if got, _ := f.SessionSteps(done.SessionID); got != 30 {
		t.Errorf("session stepped %d total, want 30 (no re-run from zero)", got)
	}
	// Fresh submissions must not collide with the recovered ID space.
	next, err := m2.Submit(context.Background(), spec("plummer", 1))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-2" {
		t.Errorf("next ID %s, want j-2", next.ID)
	}
}

// TestRestartReproducesEffectiveConfig: a job still queued at a crash comes
// back with exactly the config it was submitted with — every field far from
// its default, an explicit eps 0, pipeline and the scenario echo included —
// reads the same through Get before and after, and creates its session from
// that config.
func TestRestartReproducesEffectiveConfig(t *testing.T) {
	js, err := store.OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeRunner()
	parked := make(chan struct{})
	var once sync.Once
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		once.Do(func() { close(parked) })
		<-ctx.Done() // pin the only worker so the second job stays queued
		return ctx.Err()
	}
	m1, err := NewManager(Config{Runner: f, Workers: 1, Store: js})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(context.Background(), spec("blocker", 10)); err != nil {
		t.Fatal(err)
	}
	<-parked

	zero, theta, g, yes := 0.0, 0.9, 2.0, true
	before, err := m1.Submit(context.Background(), Spec{
		Spec: simcfg.Spec{
			Scenario: &simcfg.Scenario{Name: "solar-system", N: 48, Seed: 9},
			Config: &simcfg.Config{
				Algorithm: "bvh", Layout: "walk", DT: 0.004,
				Theta: &theta, Eps: &zero, G: &g, Sequential: &yes, Pipeline: &yes,
				TreeReuse: &simcfg.TreeReuse{RebuildEvery: 4, RefitThreshold: 0.05},
			},
		},
		Steps: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := simcfg.Effective{
		Algorithm: "bvh", Layout: "walk", DT: 0.004, Theta: 0.9, Eps: 0, G: 2,
		Sequential: true, Pipeline: true, Scenario: "solar-system",
		TreeReuse: simcfg.TreeReuse{RebuildEvery: 4, RefitThreshold: 0.05},
	}
	if before.Config != want {
		t.Fatalf("submitted config %+v, want %+v", before.Config, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	f.stepHook = nil
	m2 := newTestManager(t, Config{Runner: f, Workers: 1, Store: js})
	after := waitState(t, m2, before.ID, StateSucceeded)
	if after.Config != before.Config {
		t.Errorf("config after restart %+v, want %+v", after.Config, before.Config)
	}
	if after.Algorithm != before.Algorithm || after.DT != before.DT || after.Scenario != before.Scenario ||
		after.Workload != before.Workload || after.N != before.N || after.Seed != before.Seed {
		t.Errorf("echo after restart %+v, was %+v", after, before)
	}
	f.mu.Lock()
	got := f.sessions[after.SessionID].eff
	f.mu.Unlock()
	if got != want {
		t.Errorf("session created with %+v, want %+v", got, want)
	}
}

// TestRecordWithoutLayoutQuarantined: a record that predates the config
// object (flat physics fields, no config.layout) is moved aside at boot
// rather than re-enqueued with guessed defaults, and boot continues.
func TestRecordWithoutLayoutQuarantined(t *testing.T) {
	dir := t.TempDir()
	js, err := store.OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := `{"id":"j-1","class":"normal","state":"queued","workload":"plummer","n":16,"seed":0,` +
		`"algorithm":"octree","dt":0.001,"steps":5,"steps_done":0,"created":"2026-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, "j-1.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Runner: newFakeRunner(), Workers: 1, Store: js})
	if got := m.List(); len(got) != 0 {
		t.Errorf("recovered %+v from a record without config.layout", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "j-1.json")); err != nil {
		t.Errorf("record not quarantined: %v", err)
	}
	if _, err := m.Submit(context.Background(), spec("plummer", 1)); err != nil {
		t.Errorf("submit after quarantine: %v", err)
	}
}

// TestRecoveredJobNamingRetiredAlgorithmFails: a queued record written when
// the kd-tree solver still existed is re-enqueued at boot like any other,
// and fails permanently — no retry, no session — when the runner cannot
// build its config; the reason names the algorithm. There is no migration.
func TestRecoveredJobNamingRetiredAlgorithmFails(t *testing.T) {
	js, err := store.OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := effective(t, simcfg.Config{DT: 1e-3})
	cfg.Algorithm = "kdtree"
	rec := store.JobRecord{
		ID: "j-1", Class: ClassNormal, State: string(StateQueued),
		Workload: "plummer", N: 16, Config: cfg, Steps: 20, ChunkSteps: 10,
		Created: time.Now().UTC(),
	}
	if err := js.Save(rec); err != nil {
		t.Fatal(err)
	}

	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, Workers: 1, Store: js})
	done := waitState(t, m, "j-1", StateFailed)
	if !strings.Contains(done.Error, `unknown algorithm "kdtree"`) {
		t.Errorf("error = %q, want it to name the algorithm", done.Error)
	}
	if v := m.ins.retries.Value(); v != 0 {
		t.Errorf("retries = %v, want 0 (a retired algorithm is a permanent fault)", v)
	}
	if got := f.createdOrder(); len(got) != 0 {
		t.Errorf("sessions created: %v", got)
	}
	if _, err := m.Submit(context.Background(), spec("plummer", 1)); err != nil {
		t.Errorf("submit after the failed record: %v", err)
	}
}

func TestRestartWithLostSessionStartsOver(t *testing.T) {
	dir := t.TempDir()
	js, err := store.OpenJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store with a mid-flight record whose session no longer
	// exists (evicted or wiped between runs).
	rec := store.JobRecord{
		ID: "j-1", Class: ClassNormal, State: string(StateRunning),
		Workload: "plummer", N: 16, Config: effective(t, simcfg.Config{DT: 1e-3}), Steps: 20, ChunkSteps: 10,
		SessionID: "fs-gone", StepsDone: 10, Created: time.Now().UTC(),
	}
	if err := js.Save(rec); err != nil {
		t.Fatal(err)
	}

	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, Workers: 1, Store: js})
	done := waitState(t, m, "j-1", StateSucceeded)
	if done.StepsDone != 20 {
		t.Errorf("steps_done = %d, want 20", done.StepsDone)
	}
	if got, _ := f.SessionSteps(done.SessionID); got != 20 {
		t.Errorf("replacement session stepped %d, want the full 20", got)
	}
}

func TestCloseDeadlineBlown(t *testing.T) {
	f := newFakeRunner()
	started := make(chan struct{})
	hang := make(chan struct{})
	var once sync.Once
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		once.Do(func() { close(started) })
		<-hang // ignores ctx: simulates a wedged chunk
		return nil
	}
	m, err := NewManager(Config{Runner: f, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), spec("plummer", 10)); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); err == nil {
		t.Fatal("Close returned nil despite a wedged worker")
	}
	close(hang) // let the goroutine exit
}

func TestSubmitDuringDrain(t *testing.T) {
	f := newFakeRunner()
	m, err := NewManager(Config{Runner: f, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), spec("plummer", 1)); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit during drain: %v, want ErrShutdown", err)
	}
}

func TestRetentionPrunesTerminal(t *testing.T) {
	f := newFakeRunner()
	js, err := store.OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1, Store: js, MaxRecords: 3})

	var last Info
	for i := 0; i < 3; i++ {
		info, err := m.Submit(context.Background(), spec("plummer", 1))
		if err != nil {
			t.Fatal(err)
		}
		last = waitState(t, m, info.ID, StateSucceeded)
		_ = last
	}
	// The 4th submission must evict the oldest-finished terminal record.
	if _, err := m.Submit(context.Background(), spec("plummer", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("j-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest record not pruned: %v", err)
	}
	waitUntil(t, "pruned record deleted from store", func() bool {
		recs, _, err := js.Recover()
		if err != nil {
			return false
		}
		for _, r := range recs {
			if r.ID == "j-1" {
				return false
			}
		}
		return true
	})
	if v := m.ins.pruned.Value(); v != 1 {
		t.Errorf("pruned = %v, want 1", v)
	}
}

func TestListOrdersNumerically(t *testing.T) {
	f := newFakeRunner()
	js, err := store.OpenJobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j-2", "j-10", "j-1"} {
		rec := store.JobRecord{
			ID: id, Class: ClassNormal, State: string(StateSucceeded),
			Workload: "plummer", N: 16, Config: effective(t, simcfg.Config{DT: 1e-3}), Steps: 1, StepsDone: 1,
			Created: time.Now().UTC(), Finished: time.Now().UTC(),
		}
		if err := js.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	m := newTestManager(t, Config{Runner: f, Store: js})
	var ids []string
	for _, info := range m.List() {
		ids = append(ids, info.ID)
	}
	if strings.Join(ids, ",") != "j-1,j-2,j-10" {
		t.Errorf("list order %v", ids)
	}
	if s := m.Snapshot(); s.Records != 3 || s.Queued != 0 {
		t.Errorf("snapshot %+v", s)
	}
}

// TestReprioritize covers the PATCH surface's manager half: a queued job
// moves class (and runs ahead of lower-priority work), a running job
// refuses with ErrNotQueued, and bad inputs map onto the typed errors.
func TestReprioritize(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1})
	ctx := context.Background()

	primer, err := m.Submit(ctx, spec("primer", 1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is pinned; everything below stays queued

	low := spec("stays-low", 1)
	low.Class = ClassLow
	qLow, err := m.Submit(ctx, low)
	if err != nil {
		t.Fatal(err)
	}
	promo := spec("promoted", 1)
	promo.Class = ClassLow
	qPromo, err := m.Submit(ctx, promo)
	if err != nil {
		t.Fatal(err)
	}

	info, err := m.Reprioritize(ctx, qPromo.ID, ClassHigh)
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != ClassHigh || info.State != StateQueued {
		t.Fatalf("reprioritized info %+v, want queued high", info)
	}
	// Same-class change is a no-op, not an error.
	if _, err := m.Reprioritize(ctx, qPromo.ID, ClassHigh); err != nil {
		t.Fatalf("same-class reprioritize: %v", err)
	}

	if _, err := m.Reprioritize(ctx, qPromo.ID, "urgent"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown class: err %v, want ErrBadRequest", err)
	}
	if _, err := m.Reprioritize(ctx, "j-999", ClassHigh); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: err %v, want ErrNotFound", err)
	}
	if _, err := m.Reprioritize(ctx, primer.ID, ClassHigh); !errors.Is(err, ErrNotQueued) {
		t.Fatalf("running job: err %v, want ErrNotQueued", err)
	}

	close(release)
	waitState(t, m, qPromo.ID, StateSucceeded)
	waitState(t, m, qLow.ID, StateSucceeded)
	// The promotion was real: the high job's session was created (job
	// started) before the one that stayed low.
	order := f.createdOrder()
	if len(order) != 3 || order[1] != "promoted" || order[2] != "stays-low" {
		t.Fatalf("start order %v, want [primer promoted stays-low]", order)
	}
}

// TestSubmitRequestedID: a submitter (the router tier) may pin the job ID;
// collisions and malformed IDs are rejected synchronously, and a sharded
// manager prefixes its own minted IDs.
func TestSubmitRequestedID(t *testing.T) {
	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, Workers: 1, ShardID: "a"})
	ctx := context.Background()

	s := spec("plummer", 1)
	s.ID = "rj-0123456789abcdef"
	info, err := m.Submit(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != s.ID {
		t.Fatalf("submitted under %q, requested %q", info.ID, s.ID)
	}
	waitState(t, m, s.ID, StateSucceeded)

	if _, err := m.Submit(ctx, s); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate requested ID: err %v, want ErrBadRequest", err)
	}
	bad := spec("plummer", 1)
	bad.ID = "no/slashes allowed"
	if _, err := m.Submit(ctx, bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed requested ID: err %v, want ErrBadRequest", err)
	}

	minted, err := m.Submit(ctx, spec("plummer", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(minted.ID, "a-j-") {
		t.Fatalf("sharded manager minted %q, want a-j-<n>", minted.ID)
	}
}

func TestChunkTimeoutWatchdogRetriesTransiently(t *testing.T) {
	f := newFakeRunner()
	// The first chunk hangs until its context dies — the wedged-session
	// case the watchdog exists for. It must classify as transient (the
	// job neither cancelled nor the pool drained), so the retry loop
	// backs off and the second attempt completes the job.
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		if call == 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	m := newTestManager(t, Config{Runner: f, Workers: 1, ChunkTimeout: 25 * time.Millisecond})

	info, err := m.Submit(context.Background(), spec("plummer", 10))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, info.ID, StateSucceeded)
	if done.StepsDone != 10 {
		t.Errorf("final info %+v: want 10 steps", done)
	}
	if v := m.ins.retries.Value(); v != 1 {
		t.Errorf("retries = %v, want 1 (the watchdog-abandoned chunk)", v)
	}
}

func TestChunkTimeoutDoesNotMisclassifyCancel(t *testing.T) {
	f := newFakeRunner()
	stepping := make(chan struct{}, 1)
	f.stepHook = func(ctx context.Context, call int, sid string, n int) error {
		select {
		case stepping <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	}
	// Watchdog far in the future: the context dying means cancellation,
	// and the job must land in cancelled, not a transient retry.
	m := newTestManager(t, Config{Runner: f, Workers: 1, ChunkTimeout: time.Hour})

	info, err := m.Submit(context.Background(), spec("plummer", 10))
	if err != nil {
		t.Fatal(err)
	}
	<-stepping
	if _, _, err := m.Cancel(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, info.ID, StateCancelled)
	if v := m.ins.retries.Value(); v != 0 {
		t.Errorf("retries = %v, want 0 for a cancel", v)
	}
}
