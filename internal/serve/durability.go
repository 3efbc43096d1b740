package serve

// This file is the manager's durability and fault-containment layer:
// checkpointing sessions through internal/store, recovering them at boot,
// isolating step-path panics, and the numerical-health watchdog that
// quarantines diverging sessions instead of letting them burn step slots.

import (
	"context"
	"fmt"
	"math"
	"time"

	"nbody/internal/body"
	"nbody/internal/core"
	"nbody/internal/simcfg"
	"nbody/internal/store"
	"nbody/internal/trace"
)

// Failure kinds: the keys of the /v1/metrics failures_by_reason map and the
// reason label of nbody_session_failures_total.
const (
	failPanic       = "panic"
	failNonFinite   = "non_finite"
	failEnergyDrift = "energy_drift"
)

var failureKinds = []string{failPanic, failNonFinite, failEnergyDrift}

// failSession quarantines s (first reason wins), records the failure in the
// metrics counters, marks the on-disk checkpoint failed so a restart does
// not silently re-run a diverged state, and returns the typed error the
// HTTP layer maps to 422. Only s is affected — every other session keeps
// stepping.
func (m *Manager) failSession(s *Session, kind, reason string) error {
	if s.fail(reason) {
		m.ins.failures.With(kind).Inc()
		m.log.Log(context.Background(), "session quarantined",
			"session", s.ID, "kind", kind, "reason", reason)
		if st := m.cfg.Store; st != nil {
			if err := st.MarkFailed(s.ID, reason); err != nil {
				m.ins.checkpointErrors.Inc()
			}
		}
	}
	return fmt.Errorf("%w: %s: %s", ErrSessionFailed, s.ID, s.FailReason())
}

// stepOnce advances s by one step with the panic barrier and the per-step
// non-finite state scan around it. A panic anywhere in the solver stack is
// converted into a quarantined session instead of a dead server.
func (m *Manager) stepOnce(ctx context.Context, s *Session) error {
	runErr, healthErr, panicked, pv := func() (runErr, healthErr error, panicked bool, pv any) {
		defer func() {
			if r := recover(); r != nil {
				panicked, pv = true, r
			}
		}()
		s.mu.Lock()
		defer s.mu.Unlock()
		if m.stepHook != nil {
			m.stepHook(s)
		}
		if err := s.sim.RunContext(ctx, 1); err != nil {
			return err, nil, false, nil
		}
		return nil, nonFiniteState(s.sim.System()), false, nil
	}()
	if panicked {
		return m.failSession(s, failPanic, fmt.Sprintf("panic in step path: %v", pv))
	}
	if runErr != nil {
		return runErr
	}
	if healthErr != nil {
		return m.failSession(s, failNonFinite, healthErr.Error())
	}
	return nil
}

// nonFiniteState scans positions and velocities for NaN/Inf — the cheap
// per-step half of the numerical-health watchdog (O(N) against the O(N
// log N) force pass it follows).
func nonFiniteState(sys *body.System) error {
	for _, axis := range []struct {
		name string
		v    []float64
	}{
		{"position x", sys.PosX}, {"position y", sys.PosY}, {"position z", sys.PosZ},
		{"velocity x", sys.VelX}, {"velocity y", sys.VelY}, {"velocity z", sys.VelZ},
	} {
		for i, v := range axis.v {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite state: body %d %s = %v", i, axis.name, v)
			}
		}
	}
	return nil
}

// pinEnergyBaseline computes and pins the watchdog baseline E₀ from the
// session's current state, at creation/upload/recovery time. Pinning up
// front (rather than at the first diagnostics sample) matters: a session
// that diverges during its very first step request must be measured
// against its initial energy, not against the already-blown-up state the
// first sample would see. Called before the session is shared, so no lock.
func (m *Manager) pinEnergyBaseline(s *Session) {
	if m.cfg.MaxEnergyDrift <= 0 {
		return
	}
	e := s.sim.Diagnostics(false).TotalEnergy
	if math.IsNaN(e) || math.IsInf(e, 0) {
		// Non-finite initial state: leave the baseline unpinned and let
		// the per-step NaN/Inf scan quarantine the session on its first
		// step with the more precise reason.
		return
	}
	s.e0, s.haveE0 = e, true
}

// checkEnergyHealth is the slow half of the watchdog, run wherever a
// diagnostics sample is taken: the baseline E₀ is pinned at session
// creation (or, as a fallback, at the first sample), and any later sample
// drifting past MaxEnergyDrift (relative) quarantines the session.
func (m *Manager) checkEnergyHealth(s *Session, total float64) error {
	limit := m.cfg.MaxEnergyDrift
	if limit <= 0 {
		return nil
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return m.failSession(s, failNonFinite, fmt.Sprintf("non-finite total energy %v", total))
	}
	s.mu.Lock()
	if !s.haveE0 {
		s.e0, s.haveE0 = total, true
		s.mu.Unlock()
		return nil
	}
	e0 := s.e0
	s.mu.Unlock()
	if e0 == 0 {
		return nil
	}
	if drift := math.Abs(total-e0) / math.Abs(e0); drift > limit {
		return m.failSession(s, failEnergyDrift,
			fmt.Sprintf("energy drift %.3g exceeds limit %.3g (E0 %.6g, E %.6g)", drift, limit, e0, total))
	}
	return nil
}

// persist checkpoints s's current state (and resume metadata) through the
// store. Failed sessions are skipped — their last good checkpoint plus the
// failure marker already on disk is exactly what a restart should see. A
// store error degrades durability, not availability: it is counted, and
// the session keeps serving from memory. ctx carries the request ID for
// log correlation (context.Background() from the janitor).
func (m *Manager) persist(ctx context.Context, s *Session) {
	st := m.cfg.Store
	if st == nil {
		return
	}
	s.mu.Lock()
	if s.State() == StateFailed {
		s.mu.Unlock()
		return
	}
	cfg := s.sim.Config()
	// Checkpoint the committed step boundary: with a step in flight
	// (phase-granular cancellation, pipelined stepping) the live arrays
	// are mid-kick, and a checkpoint of them would resume wrongly.
	sys, count := s.sim.Committed()
	meta := store.Meta{
		ID:             s.ID,
		Algorithm:      s.algorithm,
		Workload:       s.workload,
		Seed:           s.seed,
		Tenant:         s.tenant,
		Scenario:       s.eff.Scenario,
		DT:             s.dt,
		Theta:          cfg.Params.Theta,
		Eps:            cfg.Params.Eps,
		G:              cfg.Params.G,
		Sequential:     cfg.Sequential,
		Layout:         cfg.Layout.String(),
		RebuildEvery:   cfg.RebuildEvery,
		RefitThreshold: cfg.RefitThreshold,
		Pipeline:       cfg.Pipeline,
		ValidateEvery:  cfg.ValidateEvery,
		Step:           s.baseStep + count,
		Time:           s.baseTime + float64(count)*s.dt,
		State:          store.StateOK,
	}
	start := time.Now()
	err := st.Save(meta, sys)
	if err == nil {
		s.savedStep = meta.Step
	}
	s.mu.Unlock()
	if err != nil {
		m.ins.checkpointErrors.Inc()
		m.log.Log(ctx, "checkpoint failed", "session", s.ID, "error", err.Error())
	} else {
		m.ins.checkpointsTotal.Inc()
		m.ins.checkpointSeconds.Observe(time.Since(start).Seconds())
	}
}

// persistIfDirty checkpoints s only when steps have completed since the
// last durable checkpoint.
func (m *Manager) persistIfDirty(ctx context.Context, s *Session) {
	if m.cfg.Store == nil {
		return
	}
	s.mu.Lock()
	_, count := s.sim.Committed()
	dirty := s.baseStep+count != s.savedStep
	s.mu.Unlock()
	if dirty {
		m.persist(ctx, s)
	}
}

// checkpointDirty is the janitor's periodic checkpoint pass over idle
// sessions, bounding how much progress a crash between requests can lose.
func (m *Manager) checkpointDirty() {
	if m.cfg.Store == nil {
		return
	}
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	for _, s := range ss {
		// Busy sessions are the stepping loop's job (CheckpointEvery);
		// interleaving another writer at its step boundaries would just
		// double the I/O.
		if !s.busy.Load() {
			m.persistIfDirty(context.Background(), s)
		}
	}
}

// recoverSessions is the NewManager boot path: restore every valid
// checkpoint in the store under its original ID, quarantine the ones that
// cannot be rebuilt, and advance the ID counter past everything recovered.
// Runs before the janitor starts, so nothing races it.
func (m *Manager) recoverSessions() error {
	recovered, quarantined, err := m.cfg.Store.Recover(m.cfg.MaxBodies)
	if err != nil {
		return err
	}
	m.ins.ckptQuarantined.Add(float64(len(quarantined)))
	for _, q := range quarantined {
		m.log.Log(context.Background(), "checkpoint quarantined", "session", q.ID, "reason", q.Reason)
	}
	var maxID uint64
	for _, r := range recovered {
		if err := m.restore(r.Meta, r.Sys); err != nil {
			// Valid JSON and a clean checksum, but not runnable by this
			// build (e.g. an algorithm it does not know): same policy as
			// corrupt files — quarantine, never fail boot.
			m.ins.ckptQuarantined.Inc()
			m.cfg.Store.Quarantine(r.Meta.ID)
			m.log.Log(context.Background(), "checkpoint quarantined", "session", r.Meta.ID, "reason", err.Error())
			continue
		}
		m.ins.sessionsRecovered.Inc()
		m.log.Log(context.Background(), "session recovered", "session", r.Meta.ID, "step", r.Meta.Step)
		if n, ok := m.ids.Seq(r.Meta.ID); ok && n > maxID {
			maxID = n
		}
	}
	// New sessions must never collide with recovered IDs.
	for m.nextID.Load() < maxID {
		m.nextID.Store(maxID)
	}
	return nil
}

// restore rebuilds one recovered session. The checkpoint stores resolved
// physics parameters, so the rebuilt core.Sim is configured identically to
// the pre-crash one, resuming at the checkpointed step/time. Sessions that
// failed before the restart come back quarantined, not runnable.
func (m *Manager) restore(meta store.Meta, sys *body.System) error {
	eff := simcfg.Effective{
		Algorithm:  meta.Algorithm,
		Layout:     meta.Layout,
		DT:         meta.DT,
		Theta:      meta.Theta,
		Eps:        meta.Eps,
		G:          meta.G,
		Sequential: meta.Sequential,
		TreeReuse: simcfg.TreeReuse{
			RebuildEvery:   meta.RebuildEvery,
			RefitThreshold: meta.RefitThreshold,
		},
		Pipeline: meta.Pipeline,
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		return err
	}
	ccfg.Runtime = m.cfg.Runtime
	ccfg.ValidateEvery = meta.ValidateEvery
	ccfg.PublishCommits = true
	sim, err := core.New(ccfg, sys)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancelCause(m.ctx)
	created := meta.SavedAt
	if created.IsZero() {
		created = time.Now()
	}
	s := &Session{
		ID:        meta.ID,
		sim:       sim,
		rec:       trace.NewRecorderLimit(meta.DT, traceRing),
		ctx:       ctx,
		cancel:    cancel,
		baseStep:  meta.Step,
		baseTime:  meta.Time,
		created:   created,
		algorithm: meta.Algorithm,
		workload:  meta.Workload,
		seed:      meta.Seed,
		dt:        meta.DT,
		n:         sys.N(),
		tenant:    meta.Tenant,
		eff:       simcfg.EffectiveOf(sim.Config()),
		savedStep: meta.Step,
	}
	s.eff.Scenario = meta.Scenario
	s.touch()
	// Drift is measured from the recovered state: the checkpoint already
	// passed validation, and the pre-crash baseline was not persisted.
	m.pinEnergyBaseline(s)
	if meta.State == store.StateFailed {
		reason := meta.FailReason
		if reason == "" {
			reason = "failed before restart"
		}
		s.fail(reason)
	}
	m.mu.Lock()
	m.sessions[s.ID] = s
	s.elem = m.lru.PushBack(s)
	m.mu.Unlock()
	return nil
}
