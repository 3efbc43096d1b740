package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/core"
	"nbody/internal/exec"
	"nbody/internal/metrics"
	"nbody/internal/obs"
	"nbody/internal/par"
	"nbody/internal/simcfg"
	"nbody/internal/snapshot"
	"nbody/internal/store"
	"nbody/internal/trace"
	"nbody/internal/workload"
)

// latencyRing keeps the most recent per-step wall times for the /metrics
// percentiles without unbounded growth.
const latencyRing = 4096

// traceRing caps each session's diagnostics trace the same way: step and
// watch requests append samples for the session's whole lifetime, so a
// long-lived session in this long-running service must not accumulate them
// unboundedly.
const traceRing = 4096

// Manager owns the live sessions and enforces the service's resource
// policy: a session cap with LRU eviction of TTL-expired idle sessions, a
// slot semaphore bounding concurrent stepping, and a bounded admission
// queue that sheds excess step requests with ErrBusy. All methods are safe
// for concurrent use.
type Manager struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // *Session, front = least recently used
	closed   bool

	slots   chan struct{}
	waiting atomic.Int64
	ids     store.IDs // the "s" scheme on cfg.ShardID
	nextID  atomic.Uint64
	wg      sync.WaitGroup

	// ex is the shared phase-graph executor pipelined sessions step on;
	// pipelineActive counts their in-flight step/watch runs (the
	// admission bound of the pipelined path, which bypasses the slot
	// semaphore). See pipeline.go.
	ex             *exec.Executor
	pipelineActive atomic.Int64

	janitorDone chan struct{}

	// tenants indexes the configured tenants (nil = open single-tenant
	// mode — no auth, no per-tenant quotas). See tenant.go.
	tenants *tenantSet

	// stepHook, when non-nil, runs under the session lock immediately
	// before each step — the fault-injection point containment tests use
	// to provoke step-path panics. Never set in production.
	stepHook func(*Session)

	// ins holds the obs instruments; log is cfg.Obs.Logger (nil-safe).
	ins *instruments
	log *obs.Logger

	latMu  sync.Mutex
	lat    [latencyRing]float64 // seconds
	latIdx int
	latN   int

	// slotHoldMean (guarded by latMu) is the EWMA of how long one
	// step/watch request holds its stepping slot, the basis of the
	// Retry-After estimate on shed step requests (see backpressure.go).
	slotHoldMean float64
}

// NewManager validates cfg, recovers any sessions the configured store
// holds (quarantining corrupt checkpoints rather than failing), starts the
// eviction janitor and returns a ready manager. Call Close to stop it.
// Recovered sessions keep their original IDs and may momentarily exceed
// MaxSessions; admission control holds new creates until eviction brings
// the count back under the cap.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:         cfg,
		ctx:         ctx,
		cancel:      cancel,
		sessions:    make(map[string]*Session),
		lru:         list.New(),
		slots:       make(chan struct{}, cfg.StepSlots),
		ids:         store.NewIDs("s", cfg.ShardID),
		ex:          exec.New(cfg.ExecWorkers),
		janitorDone: make(chan struct{}),
		tenants:     newTenantSet(cfg.Tenants),
		ins:         newInstruments(cfg.Obs.Registry),
		log:         cfg.Obs.Logger,
	}
	m.installCollectors()
	if cfg.Store != nil {
		cfg.Store.SetObserver(storeObserver{m.ins})
		if err := m.recoverSessions(); err != nil {
			cancel(err)
			close(m.janitorDone)
			m.ex.Close()
			return nil, err
		}
	}
	go m.janitor()
	return m, nil
}

// Config returns the manager's configuration with defaults applied.
func (m *Manager) Config() Config { return m.cfg }

// janitor periodically evicts sessions idle past IdleTTL.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	interval := m.cfg.IdleTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.evictExpired(m.cfg.MaxSessions + 1)
			m.checkpointDirty()
		}
	}
}

// evictExpired removes up to limit sessions whose idle age exceeds IdleTTL,
// least recently used first, and returns how many it evicted.
func (m *Manager) evictExpired(limit int) int {
	cutoff := time.Now().Add(-m.cfg.IdleTTL).UnixNano()
	var victims []*Session
	m.mu.Lock()
	for e := m.lru.Front(); e != nil && len(victims) < limit; {
		next := e.Next()
		s := e.Value.(*Session)
		if !s.busy.Load() && s.State() != StateRunning && s.lastUsed.Load() < cutoff {
			m.lru.Remove(e)
			delete(m.sessions, s.ID)
			victims = append(victims, s)
		}
		e = next
	}
	m.mu.Unlock()
	for _, s := range victims {
		// Persist-before-evict: the session leaves memory but its
		// checkpoint survives, so a later restart restores it.
		m.persistIfDirty(context.Background(), s)
		s.setState(StateEvicted)
		s.cancel(fmt.Errorf("%w: session %s evicted after %v idle", ErrNotFound, s.ID, m.cfg.IdleTTL))
		m.ins.sessionsEvicted.Inc()
		m.log.Log(context.Background(), "session evicted", "session", s.ID, "idle_ttl", m.cfg.IdleTTL.String())
	}
	return len(victims)
}

// Create builds a session from a workload generator request (raw
// workload/n/seed, or a scenario pack). ctx carries the request ID for log
// correlation only; it does not bound the work.
func (m *Manager) Create(ctx context.Context, req CreateRequest) (Info, error) {
	eff, err := req.Resolve()
	if err != nil {
		return Info{}, specError(err)
	}
	return m.createResolved(ctx, req, eff)
}

// createResolved is Create for a request whose spec is already resolved to
// eff — the entry point of job workers, which resolve at submit.
func (m *Manager) createResolved(ctx context.Context, req CreateRequest, eff simcfg.Effective) (Info, error) {
	if req.Workload == "" {
		req.Workload = "plummer"
	}
	if err := m.checkBodies(req.N); err != nil {
		return Info{}, err
	}
	sys, err := workload.ByName(req.Workload, req.N, req.Seed)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	s, err := m.insert(sys, req, eff, req.Workload, 0, 0)
	if err != nil {
		return Info{}, err
	}
	m.log.Log(ctx, "session created", "session", s.ID,
		"workload", s.workload, "algorithm", s.algorithm, "n", s.n, "dt", s.dt,
		"scenario", s.eff.Scenario, "tenant", s.tenant)
	m.persist(ctx, s)
	return s.Info(), nil
}

// CreateFromSnapshot builds a session from an uploaded binary checkpoint in
// the internal/snapshot wire format. The simulation resumes at the
// checkpoint's step/time, which snapshot downloads preserve. The upload is
// untrusted: ReadMax rejects a header-declared body count over MaxBodies
// before allocating anything proportional to it.
func (m *Manager) CreateFromSnapshot(ctx context.Context, r io.Reader, req CreateRequest) (Info, error) {
	sys, meta, err := snapshot.ReadMax(r, m.cfg.MaxBodies)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalidSnapshot, err)
	}
	if err := m.checkBodies(sys.N()); err != nil {
		return Info{}, err
	}
	eff, err := req.Resolve()
	if err != nil {
		return Info{}, specError(err)
	}
	s, err := m.insert(sys, req, eff, "snapshot", meta.Step, meta.Time)
	if err != nil {
		return Info{}, err
	}
	m.log.Log(ctx, "session created", "session", s.ID,
		"workload", "snapshot", "algorithm", s.algorithm, "n", s.n, "base_step", meta.Step)
	m.persist(ctx, s)
	return s.Info(), nil
}

// checkBodies checks a body count against the service limit.
func (m *Manager) checkBodies(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: body count %d must be > 0", ErrBadRequest, n)
	}
	if n > m.cfg.MaxBodies {
		return fmt.Errorf("%w: body count %d exceeds the service limit %d", ErrBadRequest, n, m.cfg.MaxBodies)
	}
	return nil
}

// insert constructs the core.Sim from req's resolved config eff and admits
// the session.
func (m *Manager) insert(sys *body.System, req CreateRequest, eff simcfg.Effective, workloadName string, baseStep int, baseTime float64) (*Session, error) {
	if req.ID != "" {
		if err := store.ValidID(req.ID); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	ccfg.Runtime = m.cfg.Runtime
	ccfg.ValidateEvery = req.ValidateEvery
	// Every served session publishes a committed double buffer: snapshots
	// and checkpoints read the last step-boundary state even while a step
	// is in flight (phase-granular cancellation, pipelined stepping).
	ccfg.PublishCommits = true
	sim, err := core.New(ccfg, sys)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	ctx, cancel := context.WithCancelCause(m.ctx)
	s := &Session{
		sim:       sim,
		rec:       trace.NewRecorderLimit(eff.DT, traceRing),
		ctx:       ctx,
		cancel:    cancel,
		baseStep:  baseStep,
		baseTime:  baseTime,
		created:   time.Now(),
		algorithm: eff.Algorithm,
		workload:  workloadName,
		seed:      req.Seed,
		dt:        eff.DT,
		n:         sys.N(),
		tenant:    req.tenant,
		// Echo what the engine actually runs with (core.New applies its
		// own defaults, e.g. rebuild_every 0 → 1).
		eff: simcfg.EffectiveOf(sim.Config()),
	}
	// EffectiveOf cannot recover the scenario from the engine config.
	s.eff.Scenario = eff.Scenario
	s.touch()
	m.pinEnergyBaseline(s)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel(ErrShutdown)
		return nil, ErrShutdown
	}
	if excess := 1 + len(m.sessions) - m.cfg.MaxSessions; excess > 0 {
		// Admission control: make room by evicting TTL-expired idle
		// sessions (least recently used first); if none qualify the
		// create is rejected, not queued.
		m.mu.Unlock()
		m.evictExpired(excess)
		m.mu.Lock()
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		cancel(ErrTooManySessions)
		m.ins.admissionRejected.With("session").Inc()
		return nil, retryHint{fmt.Errorf("%w (max %d)", ErrTooManySessions, m.cfg.MaxSessions), m.sessionRetryAfter()}
	}
	if t := m.tenants.lookup(req.tenant); t != nil && t.MaxSessions > 0 {
		// Per-tenant session quota, checked under the same lock as the
		// insertion so concurrent creates cannot overshoot it.
		if live := m.tenantSessionsLocked(req.tenant); live >= t.MaxSessions {
			m.mu.Unlock()
			cancel(ErrQuotaExceeded)
			m.ins.admissionRejected.With("session").Inc()
			m.ins.tenantRejected.With(req.tenant, "session").Inc()
			return nil, retryHint{
				fmt.Errorf("%w: tenant %s at its session quota (%d live, max %d)", ErrQuotaExceeded, req.tenant, live, t.MaxSessions),
				m.sessionRetryAfterFor(req.tenant),
			}
		}
	}
	if req.ID != "" {
		if _, taken := m.sessions[req.ID]; taken {
			m.mu.Unlock()
			cancel(ErrBadRequest)
			return nil, fmt.Errorf("%w: session id %q already exists", ErrBadRequest, req.ID)
		}
		s.ID = req.ID
	} else {
		// Minted IDs loop past any collision with a recovered or
		// client-requested ID instead of failing the create.
		for s.ID == "" {
			id := m.ids.Mint(m.nextID.Add(1))
			if _, taken := m.sessions[id]; !taken {
				s.ID = id
			}
		}
	}
	m.sessions[s.ID] = s
	s.elem = m.lru.PushBack(s)
	m.mu.Unlock()

	m.ins.sessionsCreated.Inc()
	return s, nil
}

// lookup returns the session and refreshes its LRU position.
func (m *Manager) lookup(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.touch()
	m.lru.MoveToBack(s.elem)
	return s, nil
}

// Get returns a session's description.
func (m *Manager) Get(id string) (Info, error) {
	s, err := m.lookup(id)
	if err != nil {
		return Info{}, err
	}
	return s.Info(), nil
}

// List returns every live session's description, most recently used last.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for e := m.lru.Front(); e != nil; e = e.Next() {
		ss = append(ss, e.Value.(*Session))
	}
	m.mu.Unlock()
	infos := make([]Info, len(ss))
	for i, s := range ss {
		infos[i] = s.Info()
	}
	return infos
}

// listLimitMax caps the page size of ListPage; listLimitDefault applies
// when the caller does not specify one.
const (
	listLimitDefault = 100
	listLimitMax     = 1000
)

// ListPage returns up to limit session descriptions ordered by session ID,
// starting after cursor (the last ID of the previous page; "" starts from
// the beginning). nextCursor is "" on the final page. limit 0 defaults to
// 100; the page size is capped at 1000 so listing stays bounded no matter
// how many sessions are live.
func (m *Manager) ListPage(limit int, cursor string) (infos []Info, nextCursor string, err error) {
	switch {
	case limit < 0:
		return nil, "", fmt.Errorf("%w: limit %d must be >= 0", ErrBadRequest, limit)
	case limit == 0:
		limit = listLimitDefault
	case limit > listLimitMax:
		limit = listLimitMax
	}
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if cursor == "" || m.ids.Less(cursor, s.ID) {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return m.ids.Less(ss[i].ID, ss[j].ID) })
	more := len(ss) > limit
	if more {
		ss = ss[:limit]
	}
	infos = make([]Info, len(ss))
	for i, s := range ss {
		infos[i] = s.Info()
	}
	if more {
		nextCursor = ss[len(ss)-1].ID
	}
	return infos, nextCursor, nil
}

// Delete removes a session, cancelling any in-flight run within one step.
// ctx carries the request ID for log correlation only.
func (m *Manager) Delete(ctx context.Context, id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.lru.Remove(s.elem)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.setState(StateEvicted)
	s.cancel(fmt.Errorf("%w: session %s deleted", ErrNotFound, id))
	m.ins.sessionsDeleted.Inc()
	m.log.Log(ctx, "session deleted", "session", id)
	// Delete is the one operation that removes checkpoint files: unlike
	// eviction, a deleted session must not come back after a restart.
	if st := m.cfg.Store; st != nil {
		if err := st.Delete(id); err != nil {
			m.ins.checkpointErrors.Inc()
			m.log.Log(ctx, "checkpoint delete failed", "session", id, "error", err.Error())
		}
	}
	return nil
}

// admit serializes step/watch requests per session (ErrConflict), sheds
// load once the slot queue is full (ErrBusy), and otherwise blocks for a
// stepping slot. The returned release func must be called when the run
// finishes.
func (m *Manager) admit(ctx context.Context, s *Session) (release func(), err error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrShutdown
	}
	if s.State() == StateFailed {
		// Quarantined sessions never step again; their data stays
		// readable through info/snapshot/trace.
		return nil, fmt.Errorf("%w: %s: %s", ErrSessionFailed, s.ID, s.FailReason())
	}
	if !s.busy.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w (%s)", ErrConflict, s.ID)
	}
	undo := func() { s.busy.Store(false) }

	// Fast path: a free slot admits immediately without consuming queue
	// budget.
	select {
	case m.slots <- struct{}{}:
	default:
		if w := m.waiting.Add(1); w > int64(m.cfg.MaxQueue) {
			m.waiting.Add(-1)
			undo()
			m.ins.admissionRejected.With("step").Inc()
			return nil, retryHint{fmt.Errorf("%w (%d queued, limit %d)", ErrBusy, w-1, m.cfg.MaxQueue), m.stepRetryAfter()}
		}
		select {
		case m.slots <- struct{}{}:
			m.waiting.Add(-1)
		case <-ctx.Done():
			m.waiting.Add(-1)
			undo()
			return nil, ctx.Err()
		case <-s.ctx.Done():
			m.waiting.Add(-1)
			undo()
			return nil, context.Cause(s.ctx)
		}
	}

	s.setState(StateRunning)
	m.wg.Add(1)
	acquired := time.Now()
	return func() {
		<-m.slots
		m.observeSlotHold(time.Since(acquired).Seconds())
		if s.State() == StateRunning {
			s.setState(StateIdle)
		}
		s.touch()
		s.busy.Store(false)
		m.wg.Done()
	}, nil
}

// checkBudget validates a requested step count against the per-request
// budget.
func (m *Manager) checkBudget(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: steps %d must be > 0", ErrBadRequest, n)
	}
	if n > m.cfg.MaxStepsPerRequest {
		return fmt.Errorf("%w: steps %d exceeds the per-request budget %d", ErrBadRequest, n, m.cfg.MaxStepsPerRequest)
	}
	return nil
}

// Step advances session id by n steps on the worker pool. On interruption
// (client timeout, session deletion, server drain) the returned StepResult
// still reports the partial progress alongside the error.
func (m *Manager) Step(ctx context.Context, id string, n int) (StepResult, error) {
	if err := m.checkBudget(n); err != nil {
		return StepResult{}, err
	}
	s, err := m.lookup(id)
	if err != nil {
		return StepResult{}, err
	}
	release, err := m.admitSession(ctx, s)
	if err != nil {
		return StepResult{}, err
	}
	defer release()

	span := m.cfg.Obs.Tracer.StartSpan(ctx, "session.step")
	span.SetAttr("session", s.ID)
	span.SetAttr("algorithm", s.algorithm)
	start := time.Now()
	completed, runErr := m.runSession(ctx, s, n, 0, nil)
	span.SetAttr("steps", strconv.Itoa(completed))
	span.End()
	// One diagnostics sample per step request feeds the session trace and
	// the energy-drift watchdog. A run cancelled between phases leaves the
	// bodies drifted and half-kicked, which no step count describes: that
	// request adds no sample, the one that finishes the step does.
	if completed > 0 {
		s.mu.Lock()
		if !s.sim.MidStep() {
			s.rec.Record(s.sim, false)
		}
		sample, _ := s.rec.Last()
		s.mu.Unlock()
		if runErr == nil {
			runErr = m.checkEnergyHealth(s, sample.TotalEnergy)
		}
	}
	m.persistIfDirty(ctx, s)
	res := StepResult{
		ID:             s.ID,
		Requested:      n,
		Completed:      completed,
		Steps:          s.StepCount(),
		ElapsedSeconds: time.Since(start).Seconds(),
		Interrupted:    runErr != nil,
	}
	return res, runErr
}

// Watch advances session id by n steps, calling emit with a diagnostics
// event every `every` steps (and after the final step). emit errors abort
// the run — that is how a disconnected streaming client stops its
// simulation work.
func (m *Manager) Watch(ctx context.Context, id string, n, every int, emit func(WatchEvent) error) error {
	if err := m.checkBudget(n); err != nil {
		return err
	}
	if every <= 0 {
		every = 1
	}
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	release, err := m.admitSession(ctx, s)
	if err != nil {
		return err
	}
	defer release()
	span := m.cfg.Obs.Tracer.StartSpan(ctx, "session.watch")
	span.SetAttr("session", s.ID)
	span.SetAttr("algorithm", s.algorithm)
	completed, err := m.runSession(ctx, s, n, every, emit)
	span.SetAttr("steps", strconv.Itoa(completed))
	span.End()
	m.persistIfDirty(ctx, s)
	return err
}

// runSteps is the shared stepping loop: one step per iteration under the
// session lock (so snapshots interleave at step boundaries), cancellable
// between steps via both the request context and the session context.
func (m *Manager) runSteps(ctx context.Context, s *Session, n, every int, emit func(WatchEvent) error) (int, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()

	var prev []time.Duration // per-phase elapsed at the previous emit
	if emit != nil {
		prev = make([]time.Duration, len(metrics.Phases()))
		s.mu.Lock()
		for _, p := range metrics.Phases() {
			prev[p] = s.sim.Breakdown().Elapsed(p)
		}
		s.mu.Unlock()
	}
	// prevPhase tracks the cumulative Breakdown between steps so each
	// step's per-phase deltas feed the nbody_step_phase_seconds
	// histograms; phaseStart pins the request's baseline for the phase
	// spans recorded when the run ends.
	prevPhase := make([]int64, len(metrics.Phases()))
	s.mu.Lock()
	for _, p := range metrics.Phases() {
		prevPhase[p] = int64(s.sim.Breakdown().Elapsed(p))
	}
	s.mu.Unlock()
	phaseStart := append([]int64(nil), prevPhase...)
	requestStart := time.Now()
	defer m.recordPhaseSpans(ctx, s, phaseStart, requestStart)

	completed := 0
	for i := 1; i <= n; i++ {
		start := time.Now()
		err := m.stepOnce(runCtx, s)
		s.mu.Lock()
		m.ins.observePhases(s.algorithm, s.sim.Breakdown(), prevPhase)
		s.mu.Unlock()
		if err != nil {
			if errors.Is(err, ErrSessionFailed) {
				// Panic or NaN/Inf state: the session is quarantined,
				// the server and every other session keep going.
				return completed, err
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Distinguish who cancelled: the session/manager (drain,
				// delete) carries a typed cause; otherwise it was the
				// request's own context.
				if s.ctx.Err() != nil {
					return completed, context.Cause(s.ctx)
				}
				return completed, err
			}
			return completed, fmt.Errorf("session %s: %w", s.ID, err)
		}
		m.recordLatency(time.Since(start).Seconds())
		m.ins.stepsTotal.Inc()
		completed++

		if emit != nil && (i%every == 0 || i == n) {
			ev := m.buildEvent(s, prev)
			if err := emit(ev); err != nil {
				return completed, err
			}
			// The event's energy sample doubles as the watchdog input, so
			// a watching client sees the last good diagnostics before the
			// quarantine error terminates the stream.
			if err := m.checkEnergyHealth(s, ev.TotalEnergy); err != nil {
				return completed, err
			}
		}
		if m.cfg.Store != nil && m.cfg.CheckpointEvery > 0 &&
			completed%m.cfg.CheckpointEvery == 0 {
			m.persistIfDirty(ctx, s)
		}
	}
	return completed, nil
}

// recordPhaseSpans writes one span per solver phase covering a whole
// step/watch request — the per-phase half of the request →
// session-step → phase trace. base is the cumulative Breakdown at
// request start.
func (m *Manager) recordPhaseSpans(ctx context.Context, s *Session, base []int64, start time.Time) {
	tr := m.cfg.Obs.Tracer
	if tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range metrics.Phases() {
		d := s.sim.Breakdown().Elapsed(p) - time.Duration(base[p])
		if d <= 0 {
			continue
		}
		tr.Record(ctx, "phase."+p.String(), start, d, map[string]string{
			"session":   s.ID,
			"algorithm": s.algorithm,
		})
	}
}

// buildEvent samples the session's diagnostics into a WatchEvent, also
// appending to the session trace. prev carries per-phase elapsed times
// across events so each event reports interval (not cumulative) wall time.
func (m *Manager) buildEvent(s *Session, prev []time.Duration) WatchEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.Record(s.sim, false)
	sample, _ := s.rec.Last()

	sys := s.sim.System()
	box := bounds.OfPositions(m.cfg.Runtime, par.ParUnseq, sys.PosX, sys.PosY, sys.PosZ)

	phases := make(map[string]float64, 6)
	for _, p := range metrics.Phases() {
		cur := s.sim.Breakdown().Elapsed(p)
		if d := cur - prev[p]; d > 0 {
			phases[p.String()] = d.Seconds()
		}
		prev[p] = cur
	}

	return WatchEvent{
		Step:          s.baseStep + sample.Step,
		Time:          s.baseTime + sample.Time,
		KineticEnergy: sample.KineticEnergy,
		Potential:     sample.Potential,
		TotalEnergy:   sample.TotalEnergy,
		MomentumNorm:  sample.MomentumNorm,
		BoundsMin:     [3]float64{box.Min.X, box.Min.Y, box.Min.Z},
		BoundsMax:     [3]float64{box.Max.X, box.Max.Y, box.Max.Z},
		PhaseSeconds:  phases,
	}
}

// WriteSnapshot serializes session id's last committed step-boundary
// state in the internal/snapshot wire format. It reads the committed
// double buffer, so it waits for at most one phase (not one whole step)
// and never observes torn mid-step arrays — even while the session is
// stepping pipelined.
func (m *Manager) WriteSnapshot(id string, w io.Writer) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sys, count := s.sim.Committed()
	meta := snapshot.Meta{
		Step: s.baseStep + count,
		Time: s.baseTime + float64(count)*s.dt,
	}
	return snapshot.Write(w, sys, meta)
}

// WriteTrace writes session id's accumulated diagnostics trace as CSV.
func (m *Manager) WriteTrace(id string, w io.Writer) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.WriteCSV(w)
}

// recordLatency appends one per-step wall time (seconds) to the ring and
// the step-latency histogram.
func (m *Manager) recordLatency(sec float64) {
	m.ins.stepSeconds.Observe(sec)
	m.latMu.Lock()
	m.lat[m.latIdx] = sec
	m.latIdx = (m.latIdx + 1) % latencyRing
	if m.latN < latencyRing {
		m.latN++
	}
	m.latMu.Unlock()
}

// LatencyStats summarizes recent per-step wall times.
type LatencyStats struct {
	Count       int     `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	Sessions         int            `json:"sessions"`
	SessionsByState  map[string]int `json:"sessions_by_state"`
	MaxSessions      int            `json:"max_sessions"`
	StepSlots        int            `json:"step_slots"`
	SlotsInUse       int            `json:"slots_in_use"`
	QueueDepth       int            `json:"queue_depth"`
	MaxQueue         int            `json:"max_queue"`
	CreatedTotal     int64          `json:"sessions_created_total"`
	EvictedTotal     int64          `json:"sessions_evicted_total"`
	DeletedTotal     int64          `json:"sessions_deleted_total"`
	RejectedSessions int64          `json:"sessions_rejected_total"`
	RejectedSteps    int64          `json:"steps_rejected_total"`
	StepsTotal       int64          `json:"steps_total"`
	// Durability and fault-containment counters.
	FailedTotal      int64 `json:"sessions_failed_total"`
	RecoveredTotal   int64 `json:"sessions_recovered_total"`
	QuarantinedTotal int64 `json:"checkpoints_quarantined_total"`
	CheckpointsTotal int64 `json:"checkpoints_total"`
	CheckpointErrors int64 `json:"checkpoint_errors_total"`
	// FailuresByReason counts quarantined sessions by failure kind
	// ("panic", "non_finite", "energy_drift").
	FailuresByReason map[string]int64 `json:"failures_by_reason,omitempty"`
	// FailedSessions maps each live quarantined session to its reason.
	FailedSessions map[string]string `json:"failed_sessions,omitempty"`
	StepLatency    *LatencyStats     `json:"step_latency,omitempty"`
	// Exec snapshots the phase-graph executor pipelined sessions run on:
	// pool occupancy, ready-queue depth, per-phase task counts and busy
	// time, and the overlap/stall time integrals.
	Exec *exec.Stats `json:"exec,omitempty"`
	// Tenants reports per-tenant quota accounting (multi-tenant mode
	// only): live sessions against the cap, rate and session rejections.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// Metrics snapshots the service counters for the /metrics endpoint.
func (m *Manager) Metrics() MetricsSnapshot {
	m.mu.Lock()
	byState := make(map[string]int, 4)
	total := len(m.sessions)
	var failed []*Session
	for _, s := range m.sessions {
		st := s.State()
		byState[st.String()]++
		if st == StateFailed {
			failed = append(failed, s)
		}
	}
	m.mu.Unlock()

	var failedSessions map[string]string
	if len(failed) > 0 {
		failedSessions = make(map[string]string, len(failed))
		for _, s := range failed {
			failedSessions[s.ID] = s.FailReason()
		}
	}
	// Every total is read from the obs instrument that counts it, so
	// /v1/metrics and the Prometheus exposition cannot disagree.
	var byReason map[string]int64
	var failedTotal int64
	for _, kind := range failureKinds {
		if n := count(m.ins.failures.With(kind)); n > 0 {
			if byReason == nil {
				byReason = make(map[string]int64, len(failureKinds))
			}
			byReason[kind] = n
			failedTotal += n
		}
	}

	snap := MetricsSnapshot{
		Sessions:         total,
		SessionsByState:  byState,
		MaxSessions:      m.cfg.MaxSessions,
		StepSlots:        m.cfg.StepSlots,
		SlotsInUse:       len(m.slots),
		QueueDepth:       int(m.waiting.Load()),
		MaxQueue:         m.cfg.MaxQueue,
		CreatedTotal:     count(m.ins.sessionsCreated),
		EvictedTotal:     count(m.ins.sessionsEvicted),
		DeletedTotal:     count(m.ins.sessionsDeleted),
		RejectedSessions: count(m.ins.admissionRejected.With("session")),
		RejectedSteps:    count(m.ins.admissionRejected.With("step")),
		StepsTotal:       count(m.ins.stepsTotal),
		FailedTotal:      failedTotal,
		RecoveredTotal:   count(m.ins.sessionsRecovered),
		QuarantinedTotal: count(m.ins.ckptQuarantined),
		CheckpointsTotal: count(m.ins.checkpointsTotal),
		CheckpointErrors: count(m.ins.checkpointErrors),
		FailuresByReason: byReason,
		FailedSessions:   failedSessions,
	}

	exStats := m.ex.Stats()
	snap.Exec = &exStats
	snap.Tenants = m.tenantMetrics()

	m.latMu.Lock()
	lats := append([]float64(nil), m.lat[:m.latN]...)
	m.latMu.Unlock()
	if len(lats) > 0 {
		sum := metrics.Summarize(lats)
		snap.StepLatency = &LatencyStats{
			Count:       sum.N,
			MeanSeconds: sum.Mean,
			P50Seconds:  sum.Percentile(0.5),
			P90Seconds:  sum.Percentile(0.9),
			P99Seconds:  sum.Percentile(0.99),
			MaxSeconds:  sum.Max,
		}
	}
	return snap
}

// Ready reports whether the manager accepts new work. It flips to false
// permanently once Close begins draining — the readiness probe's signal to
// take the instance out of rotation.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// Close drains the manager: new work is refused with ErrShutdown, every
// in-flight run is cancelled at its next step boundary, and Close waits for
// them to release their slots (bounded by ctx).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.mu.Unlock()
	if !already {
		m.cancel(ErrShutdown)
	}
	<-m.janitorDone

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// All runs have returned, so no phase tasks are in flight: the
		// executor drains instantly. Then a final checkpoint pass makes
		// whatever progress the drained runs made durable before the
		// process exits.
		m.ex.Close()
		m.checkpointDirty()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
