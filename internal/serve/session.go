package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nbody/internal/core"
	"nbody/internal/simcfg"
	"nbody/internal/trace"
)

// State is a session's position in the lifecycle
// created → running → idle → evicted, with a failed quarantine branch
// (see DESIGN.md §8).
type State int32

const (
	// StateCreated: session exists, no step request has run yet.
	StateCreated State = iota
	// StateRunning: a step or watch request is executing.
	StateRunning
	// StateIdle: at least one step request has completed; none in flight.
	StateIdle
	// StateEvicted: removed (deleted, TTL-evicted, or LRU-evicted); the
	// terminal state. Requests holding a stale pointer observe it.
	StateEvicted
	// StateFailed: quarantined after a step-path panic or a
	// numerical-health violation. The session's data stays readable but
	// step/watch requests are refused with ErrSessionFailed (422); only
	// delete or eviction moves it on.
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateIdle:
		return "idle"
	case StateEvicted:
		return "evicted"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Session is one live simulation owned by a Manager.
type Session struct {
	// ID is the manager-assigned identifier ("s-1", "s-2", ...).
	ID string

	// mu guards sim and its body system: held while stepping one step and
	// while serializing a snapshot, so snapshots interleave with long runs
	// at step boundaries instead of observing torn state.
	mu  sync.Mutex
	sim *core.Sim
	rec *trace.Recorder

	// busy serializes step/watch requests: a second concurrent one is
	// rejected with ErrConflict instead of queueing behind the first.
	busy atomic.Bool

	state atomic.Int32

	// ctx is cancelled when the session is deleted/evicted or the manager
	// shuts down, stopping any in-flight run within one step.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// baseStep/baseTime offset snapshot metadata when the session was
	// created from an uploaded checkpoint mid-run.
	baseStep int
	baseTime float64

	// elem is the session's node in the manager's LRU list (guarded by
	// the manager's mutex).
	elem *list.Element

	created   time.Time
	lastUsed  atomic.Int64 // unix nanos
	algorithm string
	workload  string
	seed      uint64
	dt        float64
	n         int

	// tenant is the owning tenant's name ("" in single-tenant mode); it
	// attributes quota accounting, logs and metrics.
	tenant string
	// eff is the fully resolved physics configuration the simulation runs
	// with (defaults applied), echoed verbatim in Info.
	eff simcfg.Effective

	// failReason (guarded by mu) says why the session entered
	// StateFailed: set once by the manager's panic isolation or
	// numerical-health watchdog, then surfaced in Info, watch streams and
	// /metrics.
	failReason string

	// savedStep (guarded by mu) is the total step count at the last
	// durable checkpoint; the manager compares it against the live count
	// to decide when a session is dirty.
	savedStep int

	// e0/haveE0 (guarded by mu) pin the session's total energy at
	// creation, the baseline of the watchdog's relative energy-drift
	// check.
	e0     float64
	haveE0 bool
}

// touch records use for LRU/TTL accounting.
func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// LastUsed returns the last time a request touched the session.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// State returns the session's lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// setState transitions the lifecycle state.
func (s *Session) setState(st State) { s.state.Store(int32(st)) }

// StepCount returns completed steps including any checkpoint base offset.
func (s *Session) StepCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseStep + s.sim.StepCount()
}

// FailReason returns why the session was quarantined ("" while healthy).
func (s *Session) FailReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failReason
}

// fail quarantines the session: records the reason and moves it to
// StateFailed. It reports whether this call was the first failure (later
// ones keep the original reason).
func (s *Session) fail(reason string) bool {
	s.mu.Lock()
	first := s.failReason == ""
	if first {
		s.failReason = reason
	}
	s.mu.Unlock()
	s.setState(StateFailed)
	return first
}

// Info is the JSON description of a session.
type Info struct {
	ID           string    `json:"id"`
	State        string    `json:"state"`
	Algorithm    string    `json:"algorithm"`
	Workload     string    `json:"workload,omitempty"`
	N            int       `json:"n"`
	DT           float64   `json:"dt"`
	Seed         uint64    `json:"seed"`
	Steps        int       `json:"steps"`
	Created      time.Time `json:"created"`
	LastUsed     time.Time `json:"last_used"`
	TraceSamples int       `json:"trace_samples"`
	// Config is the fully resolved physics configuration, every default
	// applied.
	Config simcfg.Effective `json:"config"`
	// Tenant is the owning tenant's name (multi-tenant deployments only).
	Tenant string `json:"tenant,omitempty"`
	// FailReason says why a failed session was quarantined.
	FailReason string `json:"fail_reason,omitempty"`
}

// Info snapshots the session's description.
func (s *Session) Info() Info {
	s.mu.Lock()
	steps := s.baseStep + s.sim.StepCount()
	samples := s.rec.Len()
	reason := s.failReason
	s.mu.Unlock()
	return Info{
		ID:           s.ID,
		State:        s.State().String(),
		Algorithm:    s.algorithm,
		Workload:     s.workload,
		N:            s.n,
		DT:           s.dt,
		Seed:         s.seed,
		Steps:        steps,
		Created:      s.created,
		LastUsed:     s.LastUsed(),
		TraceSamples: samples,
		Config:       s.eff,
		Tenant:       s.tenant,
		FailReason:   reason,
	}
}

// CreateRequest is the JSON body of POST /v1/sessions: what to simulate
// (the embedded simcfg.Spec — generator or scenario pack, plus the physics
// config object) and the session's own knobs.
type CreateRequest struct {
	simcfg.Spec

	// ID, when non-empty, is the session ID to create under instead of a
	// manager-minted one. It must satisfy store.ValidID and must not be
	// taken. The router tier uses this (via the X-NBody-ID header) so the
	// ID a session lives under is the key its shard was picked by.
	ID string `json:"id"`

	// tenant is stamped server-side from the authenticated request
	// context — never decoded from the wire (DisallowUnknownFields
	// rejects a client-sent "tenant" key).
	tenant string

	// ValidateEvery forwards core.Config.ValidateEvery (abort on
	// non-finite state every k steps).
	ValidateEvery int `json:"validate_every"`
}

// specError maps a simcfg.Spec resolution failure onto the manager's typed
// errors: the scenario-vs-generator exclusion is a malformed request, the
// rest are config validation failures.
func specError(err error) error {
	if errors.Is(err, simcfg.ErrScenarioExclusive) {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
}

// StepResult reports a completed (or interrupted) step request.
type StepResult struct {
	ID             string  `json:"id"`
	Requested      int     `json:"requested"`
	Completed      int     `json:"completed"`
	Steps          int     `json:"steps"` // total completed steps
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Interrupted is set when the run stopped early (client timeout or
	// server drain); Completed then reports the partial progress.
	Interrupted bool `json:"interrupted,omitempty"`
	// Error describes the interruption cause when Interrupted is set.
	Error string `json:"error,omitempty"`
}

// WatchEvent is one NDJSON record of GET /v1/sessions/{id}/watch: the
// conservation diagnostics of internal/trace plus spatial bounds and the
// per-phase wall-time of the interval since the previous event.
type WatchEvent struct {
	Step          int                `json:"step"`
	Time          float64            `json:"time"`
	KineticEnergy float64            `json:"kinetic_energy"`
	Potential     float64            `json:"potential"`
	TotalEnergy   float64            `json:"total_energy"`
	MomentumNorm  float64            `json:"momentum_norm"`
	BoundsMin     [3]float64         `json:"bounds_min"`
	BoundsMax     [3]float64         `json:"bounds_max"`
	PhaseSeconds  map[string]float64 `json:"phase_seconds,omitempty"`
}
