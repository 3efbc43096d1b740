// Package serve is the simulation service layer: it multiplexes many
// independent N-body simulation sessions over one machine behind a JSON
// HTTP API, turning the batch solvers of internal/core into a long-running
// multi-tenant system.
//
// The design splits into two halves:
//
//   - Manager (manager.go, session.go) owns the sessions. Each session
//     wraps a core.Sim plus a trace.Recorder and moves through the
//     lifecycle created → running → idle → evicted. The manager enforces
//     admission control (a hard session cap with LRU eviction of
//     TTL-expired idle sessions), bounds concurrent stepping with a slot
//     semaphore sized so that slots × per-session workers stays within the
//     internal/par runtime's capacity, sheds load once the slot queue is
//     full (the HTTP layer maps that to 429), and cancels in-flight runs
//     on shutdown via core.Sim.RunContext.
//
//   - Handler (http.go) is the net/http front end: session CRUD, stepping,
//     binary snapshot upload/download (internal/snapshot wire format), a
//     chunked NDJSON per-step watch stream, a per-session diagnostics
//     trace (CSV), liveness/readiness probes, and a /metrics endpoint
//     exporting session counts, queue depth and step-latency percentiles.
//
// A third layer (durability.go + internal/store) makes the manager
// crash-safe and fault-contained: sessions are checkpointed to an atomic
// on-disk store and recovered at boot, step-path panics and numerical
// divergence (NaN/Inf state, energy drift) quarantine only the offending
// session (HTTP 422) while the rest of the service keeps running. See
// DESIGN.md §8.
//
// Everything is stdlib-only, matching the rest of the repository.
package serve

import (
	"errors"
	"fmt"
	"time"

	"nbody/internal/obs"
	"nbody/internal/par"
	"nbody/internal/store"
)

// Typed errors the HTTP layer maps onto status codes. Manager methods wrap
// these with detail; match with errors.Is.
var (
	// ErrNotFound reports an unknown session ID (404).
	ErrNotFound = errors.New("serve: session not found")
	// ErrTooManySessions reports that the session cap is reached and no
	// idle session was old enough to evict (429).
	ErrTooManySessions = errors.New("serve: session limit reached")
	// ErrBusy reports that the stepping queue is full; the request was
	// shed instead of piling up goroutines (429).
	ErrBusy = errors.New("serve: step queue full")
	// ErrConflict reports a second concurrent step/watch request on one
	// session (409).
	ErrConflict = errors.New("serve: session is already stepping")
	// ErrShutdown reports that the manager is draining (503).
	ErrShutdown = errors.New("serve: server shutting down")
	// ErrBadRequest reports invalid session parameters (400).
	ErrBadRequest = errors.New("serve: invalid request")
	// ErrInvalidConfig reports a physics configuration that failed
	// validation — a bad field in the `config` object, or a retired flat
	// field used in its place (400, error code invalid_config). The detail
	// names the offending field.
	ErrInvalidConfig = errors.New("serve: invalid config")
	// ErrInvalidSnapshot reports an uploaded checkpoint that could not be
	// parsed or validated (400, error code invalid_snapshot).
	ErrInvalidSnapshot = errors.New("serve: invalid snapshot")
	// ErrSessionFailed reports a step/watch on a session that has been
	// quarantined after a step-path panic or a numerical-health violation
	// (NaN/Inf state, energy drift past the limit). The session's data
	// remains readable (info, snapshot, trace) but it will not step again
	// (422).
	ErrSessionFailed = errors.New("serve: session failed")
	// ErrUnauthorized reports a missing or unknown API key on a deployment
	// running with tenants configured (401, error code unauthorized).
	ErrUnauthorized = errors.New("serve: unauthorized")
	// ErrQuotaExceeded reports a request rejected by a per-tenant quota —
	// live-session cap, queued-job cap or request-rate limit (429, error
	// code quota_exceeded, Retry-After attributed to the tenant's own
	// refill/expiry horizon rather than global load).
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
)

// Config parameterizes a Manager.
type Config struct {
	// MaxSessions caps live sessions; admission beyond it evicts the
	// least-recently-used idle session past IdleTTL or fails with
	// ErrTooManySessions. Required > 0.
	MaxSessions int
	// MaxBodies caps the body count of any one session. Required > 0.
	MaxBodies int
	// IdleTTL is how long a session may sit idle before it becomes
	// evictable (by the background janitor, or on demand when a create
	// needs room). Required > 0.
	IdleTTL time.Duration
	// StepSlots bounds how many sessions step concurrently. Together with
	// Runtime's worker count it fixes the machine's total parallelism at
	// roughly StepSlots × Runtime.Workers(). Default 2.
	StepSlots int
	// MaxQueue bounds how many step/watch requests may wait for a slot
	// before new ones are shed with ErrBusy. Default StepSlots.
	MaxQueue int
	// MaxStepsPerRequest is the per-request step budget for step and
	// watch calls. Default 10000.
	MaxStepsPerRequest int
	// ExecWorkers sizes the shared phase-graph executor that runs
	// pipelined sessions (config.pipeline = true): their steps are
	// decomposed into phase tasks scheduled across this pool, so phases
	// of different sessions interleave instead of queueing whole steps
	// behind each other. Sessions without the pipeline knob are
	// unaffected — they use the StepSlots semaphore. Default StepSlots.
	ExecWorkers int
	// Runtime is the parallel runtime each session steps on. Note this is
	// the per-session runtime: size it as total workers / StepSlots (the
	// nbody-serve binary does this). Default par.Default().
	Runtime *par.Runtime
	// Store, when non-nil, makes sessions durable: every create/upload is
	// checkpointed, stepping re-checkpoints per the CheckpointEvery
	// policy, eviction persists before dropping the session, delete
	// removes the files, and NewManager recovers whatever the store holds
	// (quarantining corrupt checkpoints instead of failing boot). Nil
	// keeps the manager fully in-memory.
	Store *store.Store
	// CheckpointEvery, when > 0 with a Store, also checkpoints mid-run
	// every k completed steps, bounding how much progress a crash can
	// lose inside one long step/watch request. Regardless of its value,
	// sessions are checkpointed at every request end and janitor tick.
	CheckpointEvery int
	// Obs, when non-nil, is the observability seam: service counters,
	// per-phase step-time histograms and checkpoint/store latencies are
	// registered into Obs.Registry (scraped at GET /metrics), lifecycle
	// events are logged through Obs.Logger with the request ID from the
	// incoming context, and request/step/phase spans are recorded into
	// Obs.Tracer. Nil defaults to obs.Nop(): instruments still work but
	// nothing is exported and logs/spans are discarded.
	Obs *obs.Observer
	// ShardID, when non-empty, names this replica in a sharded deployment:
	// every HTTP response carries it in the X-NBody-Shard header, the error
	// envelope surfaces it as "shard", and manager-minted session IDs are
	// prefixed with it ("<shard>-s-<n>") so IDs stay globally unique across
	// replicas behind a router. Must satisfy store.ValidID.
	ShardID string
	// MaxEnergyDrift, when > 0, is the numerical-health watchdog's limit
	// on relative total-energy drift |E−E₀|/|E₀|, with E₀ pinned at
	// session creation. A session exceeding it is halted and
	// quarantined (ErrSessionFailed) instead of burning step slots on a
	// diverged integration. NaN/Inf positions or velocities are always
	// fatal to a session, watchdog limit or not. 0 disables the drift
	// check.
	MaxEnergyDrift float64
	// Tenants, when non-empty, turns on multi-tenant mode: every request
	// (except the health and metrics probes) must carry a configured API
	// key as `Authorization: Bearer <key>`, and per-tenant quotas — live
	// sessions, queued jobs, token-bucket request rate — are enforced at
	// admission. Empty keeps the open single-tenant behavior.
	Tenants []Tenant
}

// withDefaults validates cfg and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.MaxSessions <= 0 {
		return c, errors.New("serve: MaxSessions must be > 0")
	}
	if c.MaxBodies <= 0 {
		return c, errors.New("serve: MaxBodies must be > 0")
	}
	if c.IdleTTL <= 0 {
		return c, errors.New("serve: IdleTTL must be > 0")
	}
	if c.StepSlots <= 0 {
		c.StepSlots = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.StepSlots
	}
	if c.MaxStepsPerRequest <= 0 {
		c.MaxStepsPerRequest = 10_000
	}
	if c.ExecWorkers <= 0 {
		c.ExecWorkers = c.StepSlots
	}
	if c.CheckpointEvery < 0 {
		return c, errors.New("serve: CheckpointEvery must be >= 0")
	}
	if c.MaxEnergyDrift < 0 || c.MaxEnergyDrift != c.MaxEnergyDrift {
		return c, errors.New("serve: MaxEnergyDrift must be >= 0")
	}
	if c.ShardID != "" {
		if err := store.ValidID(c.ShardID); err != nil {
			return c, fmt.Errorf("serve: ShardID: %w", err)
		}
	}
	if c.Runtime == nil {
		c.Runtime = par.Default()
	}
	if c.Obs == nil {
		c.Obs = obs.Nop()
	}
	if c.Obs.Registry == nil {
		return c, errors.New("serve: Obs.Registry must not be nil")
	}
	if err := validateTenants(c.Tenants); err != nil {
		return c, err
	}
	return c, nil
}
