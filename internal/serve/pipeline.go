package serve

// Pipelined stepping (DESIGN.md §14): sessions created with
// config.pipeline = true run their steps as phase tasks on the manager's
// shared exec.Executor instead of holding a whole-step slot. The executor's
// hazard inference keeps each session's kick-drift-kick chain strictly
// serial — the trajectory is bit-exact against the synchronous path — while
// phases of different sessions interleave freely across the pool, so one
// session's long force pass no longer delays another session's cheap
// update phase.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nbody/internal/core"
	"nbody/internal/exec"
	"nbody/internal/metrics"
)

// healthError marks a non-finite-state detection made inside the pipelined
// commit callback, so the error mapping after RunPipelined can quarantine
// the session under the right failure kind.
type healthError struct{ err error }

func (e *healthError) Error() string { return e.err.Error() }

// admitSession picks the admission path for s: pipelined sessions are
// admitted against the executor-run bound, everything else takes a step
// slot. The session's resolved config is immutable after create, so the
// branch needs no lock.
func (m *Manager) admitSession(ctx context.Context, s *Session) (release func(), err error) {
	if s.eff.Pipeline {
		return m.admitPipelined(s)
	}
	return m.admit(ctx, s)
}

// runSession dispatches the stepping loop matching the session's admission
// path.
func (m *Manager) runSession(ctx context.Context, s *Session, n, every int, emit func(WatchEvent) error) (int, error) {
	if s.eff.Pipeline {
		return m.runStepsPipelined(ctx, s, n, every, emit)
	}
	return m.runSteps(ctx, s, n, every, emit)
}

// admitPipelined is the pipelined counterpart of admit: it serializes
// step/watch requests per session (ErrConflict) and bounds how many
// pipelined runs are in flight at once. Pipelined runs do not consume step
// slots — their phase tasks contend on the executor pool instead — so the
// bound is the same budget the slot path grants (StepSlots running plus
// MaxQueue waiting), applied without queueing: beyond it the request is
// shed immediately with ErrBusy, because a pipelined run "waits" inside
// the executor's ready queue, not at admission.
func (m *Manager) admitPipelined(s *Session) (release func(), err error) {
	if err := m.ctx.Err(); err != nil {
		return nil, ErrShutdown
	}
	if s.State() == StateFailed {
		return nil, fmt.Errorf("%w: %s: %s", ErrSessionFailed, s.ID, s.FailReason())
	}
	if !s.busy.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w (%s)", ErrConflict, s.ID)
	}
	limit := int64(m.cfg.StepSlots + m.cfg.MaxQueue)
	if active := m.pipelineActive.Add(1); active > limit {
		m.pipelineActive.Add(-1)
		s.busy.Store(false)
		m.ins.admissionRejected.With("step").Inc()
		return nil, retryHint{fmt.Errorf("%w (%d pipelined runs active, limit %d)", ErrBusy, active-1, limit), m.stepRetryAfter()}
	}

	s.setState(StateRunning)
	m.wg.Add(1)
	admitted := time.Now()
	return func() {
		m.pipelineActive.Add(-1)
		// Feed the run's duration into the slot-hold EWMA: it is the same
		// "how long does one request occupy the service" signal the
		// Retry-After estimate on shed requests is built from.
		m.observeSlotHold(time.Since(admitted).Seconds())
		if s.State() == StateRunning {
			s.setState(StateIdle)
		}
		s.touch()
		s.busy.Store(false)
		m.wg.Done()
	}, nil
}

// runStepsPipelined is the pipelined stepping loop: it mirrors runSteps
// (per-step latency and phase metrics, watch events, energy watchdog,
// checkpoint cadence, cancellation via both contexts) but delegates the
// actual stepping to core.Sim.RunPipelined on the shared executor. All
// per-step bookkeeping runs in the OnCommit callback, which the commit
// task calls after releasing the session lock; the commit tasks of one
// session are chained by the executor, so the callback is never invoked
// concurrently with itself and its writer (an emit streaming to the HTTP
// response) is never used concurrently with the request goroutine.
func (m *Manager) runStepsPipelined(ctx context.Context, s *Session, n, every int, emit func(WatchEvent) error) (int, error) {
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
	prevPhase := make([]int64, len(metrics.Phases()))
	s.mu.Lock()
	for _, p := range metrics.Phases() {
		prevPhase[p] = int64(s.sim.Breakdown().Elapsed(p))
	}
	startCount := s.sim.StepCount()
	s.mu.Unlock()
	phaseStart := append([]int64(nil), prevPhase...)
	requestStart := time.Now()
	defer m.recordPhaseSpans(ctx, s, phaseStart, requestStart)

	// The first commit's latency sample measures from admission — close
	// enough to one step's wall time that the percentiles stay honest.
	lastCommit := time.Now()
	onCommit := func(step int) error {
		now := time.Now()
		m.recordLatency(now.Sub(lastCommit).Seconds())
		lastCommit = now
		m.ins.stepsTotal.Inc()
		i := step - startCount // steps committed within this request

		s.mu.Lock()
		m.ins.observePhases(s.algorithm, s.sim.Breakdown(), prevPhase)
		healthErr := nonFiniteState(s.sim.System())
		s.mu.Unlock()
		if healthErr != nil {
			return &healthError{healthErr}
		}
		if emit != nil && (i%every == 0 || i == n) {
			ev := m.buildEvent(s, prev)
			if err := emit(ev); err != nil {
				return err
			}
			if err := m.checkEnergyHealth(s, ev.TotalEnergy); err != nil {
				return err
			}
		}
		if m.cfg.Store != nil && m.cfg.CheckpointEvery > 0 && i%m.cfg.CheckpointEvery == 0 {
			m.persistIfDirty(ctx, s)
		}
		return nil
	}

	done, err := s.sim.RunPipelined(runCtx, n, core.PipelineOpts{
		Exec:     m.ex,
		Lock:     &s.mu,
		OnCommit: onCommit,
	})
	if err == nil {
		return done, nil
	}

	// Error mapping, mirroring stepOnce/runSteps: panics anywhere in the
	// solver stack were recovered by the executor's task barrier;
	// non-finite state was flagged by the commit callback. Both quarantine
	// only this session.
	var pe exec.PanicError
	if errors.As(err, &pe) {
		return done, m.failSession(s, failPanic, fmt.Sprintf("panic in step path: %v", pe.Value))
	}
	var he *healthError
	if errors.As(err, &he) {
		return done, m.failSession(s, failNonFinite, he.err.Error())
	}
	if errors.Is(err, ErrSessionFailed) {
		return done, err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Distinguish who cancelled: the session/manager (drain, delete)
		// carries a typed cause; otherwise it was the request's context.
		if s.ctx.Err() != nil {
			return done, context.Cause(s.ctx)
		}
		return done, err
	}
	return done, fmt.Errorf("session %s: %w", s.ID, err)
}
