package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"

	"nbody/internal/obs"
	"nbody/internal/simcfg"
	"nbody/internal/store"
)

// Runner is the slice of the session layer the job executor drives. The
// production implementation is internal/serve's session manager (via
// serve.NewJobRunner); tests substitute fakes. Implementations wrap
// retryable failures (admission shedding, slot contention) with
// ErrTransient; any other error is treated as permanent and fails the job.
type Runner interface {
	// ValidateSession vets a resolved spec's generator (workload name,
	// body count against service limits) at submit time so a bad job is
	// rejected synchronously (400) rather than failing asynchronously.
	ValidateSession(spec Spec) error
	// CreateSession builds the job's backing session from the resolved
	// spec and its effective config, and returns the session's ID.
	CreateSession(ctx context.Context, spec Spec, eff simcfg.Effective) (string, error)
	// StepSession advances the session by up to n steps, returning how
	// many completed — on interruption the partial count still counts
	// toward job progress.
	StepSession(ctx context.Context, id string, n int) (completed int, err error)
	// SessionSteps returns the session's completed step count, the resume
	// position after a restart.
	SessionSteps(id string) (int, error)
	// WriteSnapshot and WriteTrace stream the session's artifacts.
	WriteSnapshot(id string, w io.Writer) error
	WriteTrace(id string, w io.Writer) error
	// DeleteSession removes the backing session when its job record is
	// deleted or pruned.
	DeleteSession(ctx context.Context, id string) error
}

// Job is one batch job owned by the Manager. All mutable fields are
// guarded by the manager's mutex.
type job struct {
	id string
	// spec is resolved: Workload/N/Seed are the generator the job runs.
	spec Spec
	// eff is what spec.Resolve returned at submit: echoed in Info, handed
	// to the session layer, and persisted whole so restarts and drain
	// handoffs reproduce it exactly.
	eff simcfg.Effective

	state     State
	sessionID string
	stepsDone int
	attempts  int
	errMsg    string

	created  time.Time
	started  time.Time
	finished time.Time
	enqueued time.Time // last enqueue, for the wait-time histogram

	// ctx is cancelled by Cancel; deliberately not derived from the
	// manager's context so a drain requeues running jobs instead of
	// cancelling them.
	ctx    context.Context
	cancel context.CancelCauseFunc
}

func (j *job) infoLocked() Info {
	return Info{
		ID:         j.id,
		State:      j.state,
		Class:      j.spec.Class,
		Workload:   j.spec.Workload,
		Algorithm:  j.eff.Algorithm,
		N:          j.spec.N,
		DT:         j.eff.DT,
		Seed:       j.spec.Seed,
		ChunkSteps: j.spec.ChunkSteps,
		Config:     j.eff,
		Scenario:   j.eff.Scenario,
		Tenant:     j.spec.Tenant,
		Steps:      j.spec.Steps,
		StepsDone:  j.stepsDone,
		SessionID:  j.sessionID,
		Attempts:   j.attempts,
		Error:      j.errMsg,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
}

func (j *job) recordLocked() store.JobRecord {
	return store.JobRecord{
		ID:         j.id,
		Class:      j.spec.Class,
		State:      string(j.state),
		Workload:   j.spec.Workload,
		N:          j.spec.N,
		Seed:       j.spec.Seed,
		Tenant:     j.spec.Tenant,
		Config:     j.eff,
		Steps:      j.spec.Steps,
		ChunkSteps: j.spec.ChunkSteps,
		SessionID:  j.sessionID,
		StepsDone:  j.stepsDone,
		Attempts:   j.attempts,
		Error:      j.errMsg,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
}

// Manager owns the job queue and its worker pool. All methods are safe for
// concurrent use.
type Manager struct {
	cfg Config

	// ctx is cancelled when Close begins draining: workers stop
	// dequeuing and in-flight chunks are interrupted at the next step
	// boundary so their jobs can be checkpointed and requeued.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	cond     *sync.Cond // signals workers when the queue grows or drain begins
	jobs     map[string]*job
	queues   map[string]*classQueue // per-class, tenant-bucketed (see queue.go)
	queuedN  int
	wrr      map[string]int // per-class smooth weighted-round-robin credits
	draining bool
	ids      store.IDs // the "j" scheme on cfg.ShardID
	nextID   uint64

	wg sync.WaitGroup // worker goroutines

	// chunkMeanSec (guarded by mu) is the EWMA of one chunk execution's
	// wall time, the basis of the Retry-After estimate on queue-full
	// rejections.
	chunkMeanSec float64

	// randFloat feeds the retry backoff's full jitter; overridable in
	// tests for determinism. Defaults to math/rand/v2.
	randFloat func() float64

	ins *instruments
	log *obs.Logger
}

// NewManager validates cfg, recovers any job records the configured store
// holds (re-enqueuing every non-terminal one), starts the worker pool and
// returns a ready manager. Call Close to drain it. Recovery happens before
// the workers start, so re-enqueued jobs keep their submission order.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		jobs:      make(map[string]*job),
		queues:    make(map[string]*classQueue, len(classWeights)),
		wrr:       make(map[string]int),
		ids:       store.NewIDs("j", cfg.ShardID),
		randFloat: rand.Float64,
		ins:       newInstruments(cfg.Obs.Registry),
		log:       cfg.Obs.Logger,
	}
	m.cond = sync.NewCond(&m.mu)
	for _, c := range classWeights {
		m.queues[c.name] = newClassQueue()
	}
	m.installCollectors()
	if cfg.Store != nil {
		if err := m.recover(); err != nil {
			cancel(err)
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover rebuilds the job table from the store: terminal records are kept
// for artifact access, non-terminal ones are re-enqueued (a record caught
// in "running" was interrupted by a crash or drain and goes back to
// queued), and the ID counter advances past everything recovered.
func (m *Manager) recover() error {
	recs, quarantined, err := m.cfg.Store.Recover()
	if err != nil {
		return err
	}
	for _, q := range quarantined {
		m.log.Log(context.Background(), "job record quarantined", "job", q.ID, "reason", q.Reason)
	}
	for _, rec := range recs {
		j := &job{
			id: rec.ID,
			spec: Spec{
				Spec:       simcfg.Spec{Workload: rec.Workload, N: rec.N, Seed: rec.Seed},
				Tenant:     rec.Tenant,
				Steps:      rec.Steps,
				Class:      rec.Class,
				ChunkSteps: rec.ChunkSteps,
			},
			eff:       rec.Config,
			state:     State(rec.State),
			sessionID: rec.SessionID,
			stepsDone: rec.StepsDone,
			errMsg:    rec.Error,
			created:   rec.Created,
			started:   rec.Started,
			finished:  rec.Finished,
		}
		if !validClass(j.spec.Class) {
			j.spec.Class = ClassNormal
		}
		j.ctx, j.cancel = context.WithCancelCause(context.Background())
		m.jobs[j.id] = j
		if !j.state.Terminal() {
			interrupted := j.state == StateRunning
			j.state = StateQueued
			j.enqueued = time.Now()
			m.queues[j.spec.Class].push(j)
			m.queuedN++
			if interrupted {
				m.ins.requeued.Inc()
			}
			m.persist(j)
			m.log.Log(context.Background(), "job re-enqueued", "job", j.id,
				"class", j.spec.Class, "steps_done", j.stepsDone)
		}
		if n, ok := m.ids.Seq(j.id); ok && n > m.nextID {
			m.nextID = n
		}
	}
	return nil
}

// Submit validates spec, enqueues a new job and returns its description.
// The queue is bounded: at capacity the submission is shed with
// ErrQueueFull rather than queued, the backpressure signal the HTTP layer
// turns into 429 + Retry-After.
func (m *Manager) Submit(ctx context.Context, spec Spec) (Info, error) {
	if spec.Class == "" {
		spec.Class = ClassNormal
	}
	if spec.ID != "" {
		if err := store.ValidID(spec.ID); err != nil {
			return Info{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if !validClass(spec.Class) {
		return Info{}, fmt.Errorf("%w: unknown priority class %q (want one of %s)",
			ErrBadRequest, spec.Class, strings.Join(Classes(), ", "))
	}
	if spec.Steps <= 0 {
		return Info{}, fmt.Errorf("%w: steps %d must be > 0", ErrBadRequest, spec.Steps)
	}
	if spec.Steps > m.cfg.MaxJobSteps {
		return Info{}, fmt.Errorf("%w: steps %d exceeds the job limit %d", ErrBadRequest, spec.Steps, m.cfg.MaxJobSteps)
	}
	if spec.ChunkSteps < 0 {
		return Info{}, fmt.Errorf("%w: chunk_steps %d must be >= 0", ErrBadRequest, spec.ChunkSteps)
	}
	if spec.ChunkSteps == 0 {
		spec.ChunkSteps = m.cfg.ChunkSteps
	}
	eff, err := spec.Resolve()
	if errors.Is(err, simcfg.ErrScenarioExclusive) {
		return Info{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if err := m.cfg.Runner.ValidateSession(spec); err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Info{}, ErrShutdown
	}
	if m.queuedN >= m.cfg.MaxQueue {
		hint := m.queueRetryAfterLocked()
		m.mu.Unlock()
		m.ins.rejected.Inc()
		return Info{}, retryHint{fmt.Errorf("%w (%d queued, limit %d)", ErrQueueFull, m.cfg.MaxQueue, m.cfg.MaxQueue), hint}
	}
	if max := m.cfg.TenantQueues[spec.Tenant]; max > 0 && spec.Tenant != "" {
		if n := m.tenantQueuedLocked(spec.Tenant); n >= max {
			hint := m.tenantRetryAfterLocked(n)
			m.mu.Unlock()
			m.ins.rejected.Inc()
			m.ins.tenantRejected.With(spec.Tenant).Inc()
			return Info{}, retryHint{fmt.Errorf("%w: tenant %s has %d jobs queued (quota %d)",
				ErrQuotaExceeded, spec.Tenant, n, max), hint}
		}
	}
	m.pruneLocked()
	id := spec.ID
	if id != "" {
		if _, taken := m.jobs[id]; taken {
			m.mu.Unlock()
			return Info{}, fmt.Errorf("%w: job id %q already exists", ErrBadRequest, id)
		}
	} else {
		for id == "" {
			m.nextID++
			if minted := m.ids.Mint(m.nextID); m.jobs[minted] == nil {
				id = minted
			}
		}
	}
	now := time.Now()
	j := &job{
		id:       id,
		spec:     spec,
		eff:      eff,
		state:    StateQueued,
		created:  now,
		enqueued: now,
	}
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	m.jobs[j.id] = j
	m.queues[spec.Class].push(j)
	m.queuedN++
	info := j.infoLocked()
	m.mu.Unlock()

	m.ins.submitted.With(spec.Class).Inc()
	m.persist(j)
	kv := []any{"job", j.id, "class", spec.Class,
		"workload", spec.Workload, "n", spec.N, "steps", spec.Steps}
	if eff.Scenario != "" {
		kv = append(kv, "scenario", eff.Scenario)
	}
	if spec.Tenant != "" {
		kv = append(kv, "tenant", spec.Tenant)
	}
	m.log.Log(ctx, "job submitted", kv...)
	m.cond.Signal()
	return info, nil
}

// pruneLocked enforces the record-retention bound: while over MaxRecords,
// the oldest-finished terminal job is removed along with its store record
// and backing session. Live (queued/running) jobs are never pruned.
func (m *Manager) pruneLocked() {
	for len(m.jobs) >= m.cfg.MaxRecords {
		var victim *job
		for _, j := range m.jobs {
			if !j.state.Terminal() {
				continue
			}
			if victim == nil || j.finished.Before(victim.finished) {
				victim = j
			}
		}
		if victim == nil {
			return // everything live; the queue bound caps this case
		}
		delete(m.jobs, victim.id)
		m.ins.pruned.Inc()
		sid := victim.sessionID
		// Store and session cleanup must not hold the table lock.
		go m.deleteArtifacts(victim.id, sid)
	}
}

// deleteArtifacts removes a job's durable record and backing session.
func (m *Manager) deleteArtifacts(id, sessionID string) {
	if st := m.cfg.Store; st != nil {
		if err := st.Delete(id); err != nil {
			m.log.Log(context.Background(), "job record delete failed", "job", id, "error", err.Error())
		}
	}
	if sessionID != "" {
		m.cfg.Runner.DeleteSession(context.Background(), sessionID)
	}
}

// Get returns a job's description.
func (m *Manager) Get(id string) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.infoLocked(), nil
}

// List returns every job's description ordered by job ID.
func (m *Manager) List() []Info {
	m.mu.Lock()
	infos := make([]Info, 0, len(m.jobs))
	for _, j := range m.jobs {
		infos = append(infos, j.infoLocked())
	}
	m.mu.Unlock()
	sort.Slice(infos, func(i, k int) bool { return m.ids.Less(infos[i].ID, infos[k].ID) })
	return infos
}

// Cancel cancels or deletes job id. A queued job is removed from its queue
// and finishes cancelled; a running one is interrupted cooperatively at
// its next step boundary (the worker then marks it cancelled); a terminal
// job's record, durable state and backing session are deleted. The
// returned Info reflects the job's state right after the call; deleted
// reports whether the record was removed entirely.
func (m *Manager) Cancel(ctx context.Context, id string) (info Info, deleted bool, err error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Info{}, false, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch {
	case j.state == StateQueued:
		if m.queues[j.spec.Class].remove(j) {
			m.queuedN--
		}
		j.state = StateCancelled
		j.finished = time.Now()
		info = j.infoLocked()
		m.mu.Unlock()
		j.cancel(errCancelled)
		m.ins.finished.With(string(StateCancelled)).Inc()
		m.persist(j)
		m.log.Log(ctx, "job cancelled", "job", id, "state", "queued")
		return info, false, nil
	case j.state == StateRunning:
		info = j.infoLocked()
		m.mu.Unlock()
		j.cancel(errCancelled)
		m.log.Log(ctx, "job cancellation requested", "job", id)
		return info, false, nil
	default: // terminal: delete the record and artifacts
		delete(m.jobs, id)
		sid := j.sessionID
		info = j.infoLocked()
		m.mu.Unlock()
		m.deleteArtifacts(id, sid)
		m.log.Log(ctx, "job deleted", "job", id)
		return info, true, nil
	}
}

// Reprioritize moves a queued job to another priority class: it leaves its
// current class queue and joins the tail of the new one (changing class
// does not jump ahead of work already waiting there). Only queued jobs can
// move — a running or terminal job keeps its class and the call fails with
// ErrNotQueued. A no-op class change (same class) succeeds without moving
// the job.
func (m *Manager) Reprioritize(ctx context.Context, id, class string) (Info, error) {
	if !validClass(class) {
		return Info{}, fmt.Errorf("%w: unknown priority class %q (want one of %s)",
			ErrBadRequest, class, strings.Join(Classes(), ", "))
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if j.state != StateQueued {
		m.mu.Unlock()
		return Info{}, fmt.Errorf("%w: job %s is %s", ErrNotQueued, id, j.state)
	}
	old := j.spec.Class
	if old != class {
		m.queues[old].remove(j)
		j.spec.Class = class
		m.queues[class].push(j)
	}
	info := j.infoLocked()
	m.mu.Unlock()
	if old != class {
		m.ins.reprioritized.Inc()
		m.persist(j)
		m.log.Log(ctx, "job reprioritized", "job", id, "from", old, "to", class)
		m.cond.Signal()
	}
	return info, nil
}

// WriteSnapshot streams job id's current simulation state in the
// internal/snapshot wire format — the job's snapshot artifact once it is
// terminal, a live checkpoint while it runs.
func (m *Manager) WriteSnapshot(id string, w io.Writer) error {
	sid, err := m.sessionOf(id)
	if err != nil {
		return err
	}
	return m.cfg.Runner.WriteSnapshot(sid, w)
}

// WriteTrace streams job id's accumulated diagnostics trace as CSV.
func (m *Manager) WriteTrace(id string, w io.Writer) error {
	sid, err := m.sessionOf(id)
	if err != nil {
		return err
	}
	return m.cfg.Runner.WriteTrace(sid, w)
}

func (m *Manager) sessionOf(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if j.sessionID == "" {
		return "", fmt.Errorf("%w: job %s has not started", ErrNotReady, id)
	}
	return j.sessionID, nil
}

// worker is one pool goroutine: dequeue under weighted-fair scheduling,
// execute, repeat until drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// dequeue blocks until a job is available or the pool drains (nil). The
// class to serve is chosen by smooth weighted round-robin over the
// non-empty queues, and the job is marked running under the same lock so
// Cancel cannot observe it half-dequeued.
func (m *Manager) dequeue() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining {
			return nil
		}
		if m.queuedN > 0 {
			j := m.queues[m.pickClassLocked()].pop()
			m.queuedN--
			j.state = StateRunning
			j.started = time.Now()
			return j
		}
		m.cond.Wait()
	}
}

// pickClassLocked runs one round of smooth weighted round-robin (the nginx
// algorithm) over the classes with queued jobs: each gains its weight in
// credit, the highest-credit class is served and pays back the round's
// total. With every class backlogged the steady-state service pattern for
// weights 4:2:1 is H N H L H N H per 7 dequeues.
//
// A class with an empty queue sits the round out AND forfeits any banked
// credit. Credit must measure service foregone while competing — without
// the reset, a class skipped (never paying back) while holding a positive
// balance from an earlier contended phase keeps that claim across an idle
// gap, and a later burst is served ahead of classes that were queuing the
// whole time, well past the 4:2:1 contract. Inside the chosen class the
// same scheme (equal weights, same clamp) picks the tenant — see
// classQueue.pickTenant.
func (m *Manager) pickClassLocked() string {
	total := 0
	best := ""
	for _, c := range classWeights {
		if m.queues[c.name].len() == 0 {
			delete(m.wrr, c.name)
			continue
		}
		m.wrr[c.name] += c.weight
		total += c.weight
		if best == "" || m.wrr[c.name] > m.wrr[best] {
			best = c.name
		}
	}
	m.wrr[best] -= total
	return best
}

// tenantQueuedLocked counts tenant's queued jobs across every class, the
// quantity the per-tenant queue quota bounds.
func (m *Manager) tenantQueuedLocked(tenant string) int {
	n := 0
	for _, q := range m.queues {
		n += q.tenantLen(tenant)
	}
	return n
}

// tenantRetryAfterLocked estimates a quota-shed submission's backoff from
// the tenant's own backlog (its queued jobs times the recent mean chunk
// wall time) rather than the global queue depth: the tenant's quota frees
// up when its own jobs drain, however idle the rest of the queue is.
func (m *Manager) tenantRetryAfterLocked(queued int) int {
	if m.chunkMeanSec <= 0 {
		return retryAfterMin
	}
	return clampRetrySeconds(float64(queued) * m.chunkMeanSec)
}

// run executes one job to a terminal state, a drain requeue, or a
// cancellation.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	wait := time.Since(j.enqueued)
	class := j.spec.Class
	m.mu.Unlock()
	m.ins.waitSeconds.With(class).Observe(wait.Seconds())
	m.ins.runningGauge.Add(1)
	defer m.ins.runningGauge.Add(-1)
	m.persist(j)
	m.log.Log(context.Background(), "job started", "job", j.id, "class", class,
		"wait_ms", wait.Seconds()*1e3)

	span := m.cfg.Obs.Tracer.StartSpan(m.ctx, "job.run")
	span.SetAttr("job", j.id)
	span.SetAttr("class", class)
	start := time.Now()
	final := m.execute(j)
	span.SetAttr("state", string(final))
	span.End()
	if final.Terminal() {
		m.ins.runSeconds.With(class).Observe(time.Since(start).Seconds())
		m.ins.finished.With(string(final)).Inc()
	}
}

// execute is the chunk loop: ensure the backing session exists, step it
// one checkpoint-sized chunk at a time, commit the job record after every
// chunk, and sort errors into cancel / drain-requeue / transient-retry /
// permanent-failure. It returns the state the job was left in.
func (m *Manager) execute(j *job) State {
	for {
		m.mu.Lock()
		done, total := j.stepsDone, j.spec.Steps
		chunkSize := j.spec.ChunkSteps
		m.mu.Unlock()
		if done >= total {
			return m.finish(j, StateSucceeded, "")
		}
		if j.ctx.Err() != nil {
			return m.finish(j, StateCancelled, "")
		}
		if m.ctx.Err() != nil {
			return m.requeue(j)
		}

		sid, err := m.ensureSession(j)
		if err == nil {
			// ensureSession may have re-synced stepsDone to the recovered
			// session's position; re-read it so the chunk never overshoots
			// the job's total.
			m.mu.Lock()
			done = j.stepsDone
			m.mu.Unlock()
			if done >= total {
				continue
			}
			chunk := total - done
			if chunk > chunkSize {
				chunk = chunkSize
			}
			var completed int
			completed, err = m.stepChunk(j, sid, chunk)
			if completed > 0 {
				m.mu.Lock()
				j.stepsDone += completed
				m.mu.Unlock()
				// The chunk commit: job progress becomes durable on the
				// same boundary the session layer checkpoints the
				// particle state.
				m.persist(j)
			}
			if err == nil {
				m.mu.Lock()
				j.attempts = 0
				m.mu.Unlock()
				continue
			}
		}

		switch {
		case j.ctx.Err() != nil:
			return m.finish(j, StateCancelled, "")
		case m.ctx.Err() != nil:
			return m.requeue(j)
		case errors.Is(err, ErrTransient):
			m.mu.Lock()
			j.attempts++
			attempts := j.attempts
			m.mu.Unlock()
			if attempts > m.cfg.MaxRetries {
				return m.finish(j, StateFailed,
					fmt.Sprintf("transient fault persisted after %d retries: %v", m.cfg.MaxRetries, err))
			}
			m.ins.retries.Inc()
			m.log.Log(context.Background(), "job retrying", "job", j.id,
				"attempt", attempts, "error", err.Error())
			// An interrupted backoff (cancel or drain) just re-enters the
			// loop, which re-sorts the condition at the top.
			m.backoff(j, attempts)
			continue
		default:
			return m.finish(j, StateFailed, err.Error())
		}
	}
}

// ensureSession returns the job's backing session, creating it on first
// run. After a restart the recovered session's step count is the resume
// position; a session that disappeared entirely (deleted, evicted past its
// checkpoint) restarts the job from step zero with a fresh session.
func (m *Manager) ensureSession(j *job) (string, error) {
	m.mu.Lock()
	sid := j.sessionID
	m.mu.Unlock()
	if sid != "" {
		if steps, err := m.cfg.Runner.SessionSteps(sid); err == nil {
			m.mu.Lock()
			j.stepsDone = steps
			m.mu.Unlock()
			return sid, nil
		}
		m.log.Log(context.Background(), "job session lost, restarting", "job", j.id, "session", sid)
		m.mu.Lock()
		j.sessionID = ""
		j.stepsDone = 0
		m.mu.Unlock()
	}
	ctx, cancel := m.chunkContext(j)
	defer cancel()
	id, err := m.cfg.Runner.CreateSession(ctx, j.spec, j.eff)
	if err != nil {
		return "", m.watchdogErr(ctx, j, err)
	}
	m.mu.Lock()
	j.sessionID = id
	m.mu.Unlock()
	m.persist(j)
	m.log.Log(context.Background(), "job session created", "job", j.id, "session", id)
	return id, nil
}

// stepChunk advances the session by one chunk under a context that both
// job cancellation and pool drain interrupt at a step boundary. Each
// chunk's wall time feeds the queue-full Retry-After estimate.
func (m *Manager) stepChunk(j *job, sid string, n int) (int, error) {
	ctx, cancel := m.chunkContext(j)
	defer cancel()
	start := time.Now()
	completed, err := m.cfg.Runner.StepSession(ctx, sid, n)
	if completed > 0 {
		m.observeChunk(time.Since(start).Seconds())
	}
	return completed, m.watchdogErr(ctx, j, err)
}

// chunkContext derives a context cancelled by the job's own
// cancellation, the pool's drain, or — when ChunkTimeout is set — the
// chunk watchdog.
func (m *Manager) chunkContext(j *job) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(j.ctx)
	stop := context.AfterFunc(m.ctx, cancel)
	if m.cfg.ChunkTimeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, m.cfg.ChunkTimeout)
		return tctx, func() { tcancel(); stop(); cancel() }
	}
	return ctx, func() { stop(); cancel() }
}

// watchdogErr classifies an error from a chunk whose context the
// ChunkTimeout watchdog expired: neither the job nor the pool asked to
// stop, so the hang is the session layer's — a transient fault the
// retry loop should back off and re-attempt, not a permanent failure.
func (m *Manager) watchdogErr(ctx context.Context, j *job, err error) error {
	if err == nil || !errors.Is(ctx.Err(), context.DeadlineExceeded) ||
		j.ctx.Err() != nil || m.ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("%w: chunk exceeded watchdog %v: %v", ErrTransient, m.cfg.ChunkTimeout, err)
}

// backoffDelay computes attempt's retry delay: exponential growth from
// RetryBase capped at RetryMax, then full jitter (a uniform draw over
// [0, cap]). Transient faults here are usually contention — the session
// layer shedding load — and several jobs tend to trip on the same fault
// at once; without jitter they would all retry in lockstep and collide
// again, so the delay is randomized over the whole window (the "full
// jitter" scheme) rather than merely perturbed. Floored at 1ms so a
// near-zero draw cannot turn the retry loop hot.
func (m *Manager) backoffDelay(attempt int) time.Duration {
	d := m.cfg.RetryBase << (attempt - 1)
	if d > m.cfg.RetryMax || d <= 0 {
		d = m.cfg.RetryMax
	}
	j := time.Duration(m.randFloat() * float64(d))
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}

// backoff sleeps the jittered retry delay, interruptible by job cancel
// and drain. It reports whether the full delay elapsed.
func (m *Manager) backoff(j *job, attempt int) bool {
	t := time.NewTimer(m.backoffDelay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-j.ctx.Done():
		return false
	case <-m.ctx.Done():
		return false
	}
}

// observeChunk feeds one chunk execution's wall time into the EWMA behind
// queueRetryAfterLocked.
func (m *Manager) observeChunk(sec float64) {
	m.mu.Lock()
	if m.chunkMeanSec == 0 {
		m.chunkMeanSec = sec
	} else {
		m.chunkMeanSec = (1-chunkEWMAAlpha)*m.chunkMeanSec + chunkEWMAAlpha*sec
	}
	m.mu.Unlock()
}

// queueRetryAfterLocked estimates how long a shed submission should wait
// before retrying: the current backlog times the recent mean chunk wall
// time, clamped to [1, 30] seconds. Call with m.mu held.
func (m *Manager) queueRetryAfterLocked() int {
	if m.chunkMeanSec <= 0 {
		return retryAfterMin
	}
	return clampRetrySeconds(float64(m.queuedN) * m.chunkMeanSec)
}

// clampRetrySeconds rounds an estimate in seconds up to a whole second
// inside [retryAfterMin, retryAfterMax].
func clampRetrySeconds(s float64) int {
	n := int(math.Ceil(s))
	if n < retryAfterMin {
		return retryAfterMin
	}
	if n > retryAfterMax {
		return retryAfterMax
	}
	return n
}

// finish moves j to a terminal state and commits the record.
func (m *Manager) finish(j *job, st State, errMsg string) State {
	m.mu.Lock()
	j.state = st
	j.finished = time.Now()
	if errMsg != "" {
		j.errMsg = errMsg
	}
	if st == StateCancelled && j.errMsg == "" {
		if cause := context.Cause(j.ctx); cause != nil && !errors.Is(cause, errCancelled) {
			j.errMsg = cause.Error()
		}
	}
	steps := j.stepsDone
	m.mu.Unlock()
	m.persist(j)
	m.log.Log(context.Background(), "job finished", "job", j.id,
		"state", string(st), "steps_done", steps, "error", errMsg)
	return st
}

// requeue puts a drained job back in the queued state so a restart
// re-enqueues it from its persisted record; the in-memory queue itself is
// not rebuilt because the workers are exiting.
func (m *Manager) requeue(j *job) State {
	m.mu.Lock()
	j.state = StateQueued
	j.enqueued = time.Now()
	m.mu.Unlock()
	m.ins.requeued.Inc()
	m.persist(j)
	m.log.Log(context.Background(), "job checkpointed for requeue", "job", j.id,
		"steps_done", j.stepsDone)
	return StateQueued
}

// persist commits j's current record through the store. A store error
// degrades durability, not availability: it is logged and the job keeps
// running from memory.
func (m *Manager) persist(j *job) {
	st := m.cfg.Store
	if st == nil {
		return
	}
	m.mu.Lock()
	rec := j.recordLocked()
	m.mu.Unlock()
	if err := st.Save(rec); err != nil {
		m.ins.recordErrors.Inc()
		m.log.Log(context.Background(), "job record save failed", "job", j.id, "error", err.Error())
	}
}

// Metrics is the JSON summary of the queue for dashboards that do not
// scrape Prometheus.
type Metrics struct {
	Queued  int            `json:"queued"`
	ByState map[string]int `json:"jobs_by_state"`
	ByClass map[string]int `json:"queued_by_class"`
	// ByTenant breaks the queue depth down by submitting tenant
	// (multi-tenant deployments only; untenanted jobs are omitted).
	ByTenant  map[string]int `json:"queued_by_tenant,omitempty"`
	MaxQueue  int            `json:"max_queue"`
	Workers   int            `json:"workers"`
	Records   int            `json:"records"`
	Draining  bool           `json:"draining,omitempty"`
	MaxJobLen int            `json:"max_job_steps"`
}

// Snapshot summarizes the queue's live state.
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState := make(map[string]int, 5)
	for _, j := range m.jobs {
		byState[string(j.state)]++
	}
	byClass := make(map[string]int, len(classWeights))
	var byTenant map[string]int
	for _, c := range classWeights {
		q := m.queues[c.name]
		byClass[c.name] = q.len()
		for t, l := range q.tenants {
			if t == "" {
				continue
			}
			if byTenant == nil {
				byTenant = make(map[string]int)
			}
			byTenant[t] += len(l)
		}
	}
	return Metrics{
		Queued:    m.queuedN,
		ByState:   byState,
		ByClass:   byClass,
		ByTenant:  byTenant,
		MaxQueue:  m.cfg.MaxQueue,
		Workers:   m.cfg.Workers,
		Records:   len(m.jobs),
		Draining:  m.draining,
		MaxJobLen: m.cfg.MaxJobSteps,
	}
}

// Close drains the pool: submissions are refused with ErrShutdown, workers
// stop dequeuing, and every in-flight job is interrupted at its next step
// boundary, checkpointed and moved back to queued so a restart resumes it.
// Close waits for the workers to exit (bounded by ctx); a blown deadline
// is the non-zero-exit signal that jobs may not have reached their final
// checkpoint.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		m.cancel(ErrShutdown)
	}
	m.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain incomplete: %w", ctx.Err())
	}
}
