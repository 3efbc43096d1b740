package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nbody/internal/core"
	"nbody/internal/par"
	"nbody/internal/simcfg"
	"nbody/internal/workload"
)

// testConfig returns a small service config suitable for unit tests.
func testConfig() Config {
	return Config{
		MaxSessions:        8,
		MaxBodies:          10_000,
		IdleTTL:            time.Hour, // no eviction unless a test wants it
		StepSlots:          4,
		MaxQueue:           4,
		MaxStepsPerRequest: 100_000,
		Runtime:            par.NewRuntime(2, par.Dynamic),
	}
}

// plummerReq is the create request of a Plummer sphere of n bodies under
// the physics config cfg.
func plummerReq(n int, seed uint64, cfg simcfg.Config) CreateRequest {
	return CreateRequest{Spec: simcfg.Spec{Workload: "plummer", N: n, Seed: seed, Config: &cfg}}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return m
}

// waitUntil polls cond until true or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{MaxSessions: 1},
		{MaxSessions: 1, MaxBodies: 1},
		{MaxSessions: -1, MaxBodies: 1, IdleTTL: time.Second},
		{MaxSessions: 1, MaxBodies: -1, IdleTTL: time.Second},
		{MaxSessions: 1, MaxBodies: 1, IdleTTL: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestConcurrentDeterminism is the acceptance test for the session
// manager's isolation: N sessions with identical parameters stepped
// concurrently through the service must produce trajectories bitwise
// identical to a directly-driven core.Sim with the same configuration.
// AllPairs is used because its per-body inner summation order is fixed, so
// parallel scheduling cannot reorder floating-point sums.
func TestConcurrentDeterminism(t *testing.T) {
	const (
		nBodies  = 256
		nSteps   = 6
		sessions = 4
		seed     = 99
		dt       = 1e-3
	)
	cfg := testConfig()
	m := newTestManager(t, cfg)

	// Reference trajectory: the same runtime the manager hands sessions.
	refSys := workload.Plummer(nBodies, seed)
	ref, err := core.New(core.Config{Algorithm: core.AllPairs, DT: dt, Runtime: cfg.Runtime}, refSys)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(nSteps); err != nil {
		t.Fatal(err)
	}

	req := plummerReq(nBodies, seed, simcfg.Config{Algorithm: "all-pairs", DT: dt})
	ids := make([]string, sessions)
	for i := range ids {
		info, err := m.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = m.Step(context.Background(), id, nSteps)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	for i, id := range ids {
		s, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		sys := s.sim.System()
		if got := s.sim.StepCount(); got != nSteps {
			t.Fatalf("session %d stepped %d, want %d", i, got, nSteps)
		}
		for j := 0; j < nBodies; j++ {
			if sys.PosX[j] != refSys.PosX[j] || sys.PosY[j] != refSys.PosY[j] || sys.PosZ[j] != refSys.PosZ[j] {
				t.Fatalf("session %d body %d diverged: (%g,%g,%g) != (%g,%g,%g)",
					i, j,
					sys.PosX[j], sys.PosY[j], sys.PosZ[j],
					refSys.PosX[j], refSys.PosY[j], refSys.PosZ[j])
			}
		}
	}
}

func TestSessionAdmissionLimit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 2
	m := newTestManager(t, cfg)

	req := plummerReq(32, 0, simcfg.Config{DT: 0.01})
	for i := 0; i < 2; i++ {
		if _, err := m.Create(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(context.Background(), req); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap create = %v, want ErrTooManySessions", err)
	}
	if got := m.Metrics().RejectedSessions; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestCreateEvictsExpiredLRU(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 2
	// TTL long enough that the janitor stays out of the way: this test
	// exercises the on-demand eviction inside Create.
	cfg.IdleTTL = time.Hour
	m := newTestManager(t, cfg)

	req := plummerReq(32, 0, simcfg.Config{DT: 0.01})
	a, err := m.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Backdate a past the TTL; b stays fresh, so a is the expired LRU
	// candidate.
	sa, err := m.lookup(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	sa.lastUsed.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	if _, err := m.Get(b.ID); err != nil {
		t.Fatal(err)
	}

	c, err := m.Create(context.Background(), req)
	if err != nil {
		t.Fatalf("create with expired LRU available = %v", err)
	}
	if _, err := m.Get(a.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU session %s should have been evicted, got %v", a.ID, err)
	}
	if _, err := m.Get(c.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics().EvictedTotal; got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
}

func TestJanitorEvictsIdle(t *testing.T) {
	cfg := testConfig()
	cfg.IdleTTL = 20 * time.Millisecond
	m := newTestManager(t, cfg)

	if _, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01})); err != nil {
		t.Fatal(err)
	}
	// The janitor drops the session from the map before it counts the
	// eviction, so wait for both.
	waitUntil(t, 2*time.Second, "janitor eviction", func() bool {
		return len(m.List()) == 0 && m.Metrics().EvictedTotal == 1
	})
}

// blockedWatch starts a watch whose first emit blocks, pinning a step slot
// deterministically. It returns the release func and a done channel with
// the watch error.
func blockedWatch(t *testing.T, m *Manager, id string) (release func(), done <-chan error) {
	t.Helper()
	// Buffered: the first emit may run before this goroutine is receiving.
	entered := make(chan struct{}, 1)
	unblock := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		finished <- m.Watch(context.Background(), id, 2, 1, func(WatchEvent) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-unblock
			return nil
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("watch never reached emit")
	}
	var once sync.Once
	return func() { once.Do(func() { close(unblock) }) }, finished
}

// TestStepLoadShedding is the backpressure acceptance test: once the slot
// is taken and the wait queue is full, further step requests fail fast with
// ErrBusy (HTTP 429) instead of piling up goroutines.
func TestStepLoadShedding(t *testing.T) {
	cfg := testConfig()
	cfg.StepSlots = 1
	cfg.MaxQueue = 1
	m := newTestManager(t, cfg)

	req := plummerReq(32, 0, simcfg.Config{DT: 0.01})
	var ids [3]string
	for i := range ids {
		info, err := m.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}

	release, watchDone := blockedWatch(t, m, ids[0]) // occupies the only slot
	defer release()

	// Fill the one queue seat with a second session's step.
	queued := make(chan error, 1)
	go func() {
		_, err := m.Step(context.Background(), ids[1], 1)
		queued <- err
	}()
	waitUntil(t, 5*time.Second, "queue depth 1", func() bool {
		return m.Metrics().QueueDepth == 1
	})

	// The queue is full: a third session's step must be shed immediately.
	if _, err := m.Step(context.Background(), ids[2], 1); !errors.Is(err, ErrBusy) {
		t.Fatalf("overload step = %v, want ErrBusy", err)
	}
	if got := m.Metrics().RejectedSteps; got != 1 {
		t.Fatalf("rejected steps = %d, want 1", got)
	}

	// Release the slot: the queued request must complete normally.
	release()
	if err := <-watchDone; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued step: %v", err)
	}
}

func TestConcurrentStepConflict(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	release, done := blockedWatch(t, m, info.ID)
	defer release()

	if _, err := m.Step(context.Background(), info.ID, 1); !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent step on busy session = %v, want ErrConflict", err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestStepBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStepsPerRequest = 10
	m := newTestManager(t, cfg)
	info, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 11); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("over-budget step = %v, want ErrBadRequest", err)
	}
	if _, err := m.Step(context.Background(), info.ID, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero step = %v, want ErrBadRequest", err)
	}
}

// TestShutdownCancelsMidRun is the graceful-drain acceptance test: Close
// must stop an in-flight multi-step run at its next step boundary and
// return once the slot is released.
func TestShutdownCancelsMidRun(t *testing.T) {
	m, err := NewManager(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(context.Background(), plummerReq(512, 0, simcfg.Config{Algorithm: "all-pairs", DT: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}

	const huge = 100_000
	type outcome struct {
		res StepResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := m.Step(context.Background(), info.ID, huge)
		done <- outcome{res, err}
	}()
	waitUntil(t, 10*time.Second, "first step to land", func() bool {
		return m.Metrics().StepsTotal > 0
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close did not drain: %v", err)
	}
	o := <-done
	if !errors.Is(o.err, ErrShutdown) {
		t.Fatalf("interrupted step error = %v, want ErrShutdown", o.err)
	}
	if !o.res.Interrupted || o.res.Completed == 0 || o.res.Completed >= huge {
		t.Fatalf("interrupted result = %+v", o.res)
	}
	t.Logf("drained after %d/%d steps in %v", o.res.Completed, huge, time.Since(start))

	// The drained manager refuses new work.
	if _, err := m.Create(context.Background(), plummerReq(32, 0, simcfg.Config{DT: 0.01})); !errors.Is(err, ErrShutdown) {
		t.Fatalf("create after Close = %v, want ErrShutdown", err)
	}
	if _, err := m.Step(context.Background(), info.ID, 1); !errors.Is(err, ErrShutdown) {
		t.Fatalf("step after Close = %v, want ErrShutdown", err)
	}
}

func TestDeleteCancelsMidRun(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(512, 0, simcfg.Config{Algorithm: "all-pairs", DT: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Step(context.Background(), info.ID, 100_000)
		done <- err
	}()
	waitUntil(t, 10*time.Second, "first step to land", func() bool {
		return m.Metrics().StepsTotal > 0
	})
	if err := m.Delete(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted mid-run step error = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still resolvable: %v", err)
	}
}

func TestRequestContextCancelsRun(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(512, 0, simcfg.Config{Algorithm: "all-pairs", DT: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Step(ctx, info.ID, 100_000)
		done <- err
	}()
	waitUntil(t, 10*time.Second, "first step to land", func() bool {
		return m.Metrics().StepsTotal > 0
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client-cancelled step error = %v, want context.Canceled", err)
	}
	// The session survives a client timeout and is idle again.
	waitUntil(t, 5*time.Second, "session idle", func() bool {
		in, err := m.Get(info.ID)
		return err == nil && in.State == StateIdle.String()
	})
}

// cancelledAfter is a context whose n-th Err call onwards reports
// cancellation. core checks Err once before each phase, so it stops a step
// after exactly n-1 phases.
type cancelledAfter struct {
	context.Context
	n int
}

func (c *cancelledAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// A step request cancelled between phases must not add a row to the session
// trace: the bodies are drifted and half-kicked, and the row would carry the
// previous step's number. The request that finishes the step samples it.
func TestInterruptedStepRecordsNoMidStepSample(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	m.stepHook = func(s *Session) {
		// Before the second step: run its opening kick-and-drift and
		// stop at the phase boundary, then cancel the request, which is
		// what a cancellation landing during that phase leaves behind.
		if calls++; calls == 2 {
			if err := s.sim.StepContext(&cancelledAfter{Context: ctx, n: 2}); !errors.Is(err, context.Canceled) {
				t.Errorf("partial step: %v", err)
			}
			cancel()
		}
	}
	rows := func() int {
		in, err := m.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return in.TraceSamples
	}

	before := rows()
	res, err := m.Step(ctx, info.ID, 3)
	if !errors.Is(err, context.Canceled) || res.Completed != 1 {
		t.Fatalf("interrupted step = %+v, %v; want 1 completed and context.Canceled", res, err)
	}
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !s.sim.MidStep() {
		t.Fatal("the run did not stop mid-step; the test proves nothing")
	}
	if got := rows(); got != before {
		t.Errorf("trace rows %d → %d across a request that ended mid-step", before, got)
	}

	if _, err := m.Step(context.Background(), info.ID, 1); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != before+1 {
		t.Errorf("trace rows = %d after finishing the step, want %d", got, before+1)
	}
}

func TestWatchEvents(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	var events []WatchEvent
	err = m.Watch(context.Background(), info.ID, 6, 2, func(ev WatchEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if want := 2 * (i + 1); ev.Step != want {
			t.Errorf("event %d at step %d, want %d", i, ev.Step, want)
		}
		if ev.TotalEnergy == 0 || ev.BoundsMin == ev.BoundsMax {
			t.Errorf("event %d looks empty: %+v", i, ev)
		}
	}
	// Watch samples feed the session trace.
	in, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in.TraceSamples != 3 {
		t.Errorf("trace samples = %d, want 3", in.TraceSamples)
	}
}

func TestWatchEmitErrorAborts(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("client went away")
	err = m.Watch(context.Background(), info.ID, 50, 1, func(WatchEvent) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("watch error = %v, want emit error", err)
	}
	in, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if in.Steps >= 50 {
		t.Fatalf("watch ran to completion (%d steps) despite emit failure", in.Steps)
	}
}

// TestEvictExpiredLRUOrder: when several sessions are past the TTL,
// eviction takes them least recently used first, and a bounded pass stops
// at its limit.
func TestEvictExpiredLRUOrder(t *testing.T) {
	cfg := testConfig()
	cfg.IdleTTL = time.Hour
	m := newTestManager(t, cfg)

	req := plummerReq(32, 0, simcfg.Config{DT: 0.01})
	var ids [3]string
	for i := range ids {
		info, err := m.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	// All three expired, with ids[0] the coldest; ids[2] stays fresh.
	backdate := func(id string, age time.Duration) {
		s, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		s.lastUsed.Store(time.Now().Add(-age).UnixNano())
	}
	backdate(ids[0], 3*time.Hour)
	backdate(ids[1], 2*time.Hour)
	// lookup refreshed LRU positions in call order, so the list front is
	// now ids[0] — the coldest — followed by ids[1].

	// Survival checks go through List: a Get would touch the session and
	// refresh its TTL, un-expiring it.
	alive := func() map[string]bool {
		ids := make(map[string]bool)
		for _, in := range m.List() {
			ids[in.ID] = true
		}
		return ids
	}

	if n := m.evictExpired(1); n != 1 {
		t.Fatalf("bounded eviction removed %d, want 1", n)
	}
	if got := alive(); got[ids[0]] || !got[ids[1]] {
		t.Fatalf("limit-1 pass should evict only the coldest %s: alive %v", ids[0], got)
	}

	if n := m.evictExpired(8); n != 1 {
		t.Fatalf("second pass removed %d, want 1 (only ids[1] is expired)", n)
	}
	if got := alive(); got[ids[1]] || !got[ids[2]] {
		t.Fatalf("second pass should evict %s and keep fresh %s: alive %v", ids[1], ids[2], got)
	}
	if got := m.Metrics().EvictedTotal; got != 2 {
		t.Fatalf("evicted counter = %d, want 2", got)
	}
}

// TestCloseRacesWatch drives Close concurrently with an in-flight watch
// stream (run under -race): the watch must terminate with the shutdown
// cause at a step boundary and Close must drain cleanly.
func TestCloseRacesWatch(t *testing.T) {
	m, err := NewManager(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(context.Background(), plummerReq(256, 0, simcfg.Config{Algorithm: "all-pairs", DT: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan WatchEvent, 1)
	done := make(chan error, 1)
	go func() {
		done <- m.Watch(context.Background(), info.ID, 100_000, 1, func(ev WatchEvent) error {
			select {
			case events <- ev:
			default:
			}
			return nil
		})
	}()
	select {
	case <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("watch never emitted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close racing watch: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrShutdown) {
		t.Fatalf("interrupted watch error = %v, want ErrShutdown", err)
	}
}

func TestMetricsLatency(t *testing.T) {
	m := newTestManager(t, testConfig())
	info, err := m.Create(context.Background(), plummerReq(64, 0, simcfg.Config{DT: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(context.Background(), info.ID, 8); err != nil {
		t.Fatal(err)
	}
	got := m.Metrics()
	if got.StepsTotal != 8 {
		t.Errorf("steps_total = %d, want 8", got.StepsTotal)
	}
	if got.StepLatency == nil || got.StepLatency.Count != 8 {
		t.Fatalf("latency stats = %+v, want count 8", got.StepLatency)
	}
	if got.StepLatency.P50Seconds <= 0 || got.StepLatency.P99Seconds < got.StepLatency.P50Seconds {
		t.Errorf("implausible percentiles: %+v", got.StepLatency)
	}
	if got.Sessions != 1 || got.SessionsByState[StateIdle.String()] != 1 {
		t.Errorf("session gauges: %+v", got)
	}
}
