// Package jobs is the service's asynchronous batch-execution subsystem: a
// bounded, multi-tenant job queue feeding a fixed worker pool that runs
// long N-body integrations in checkpoint-sized chunks through the session
// layer, decoupling work submission from execution the way Dekate et al.'s
// event-driven execution model decouples tree-code task issue from
// completion.
//
// A job is a simulation spec (simcfg.Spec, the same one a session is created
// from) plus a total step count and a priority class.
// Submission enqueues and returns immediately (the HTTP layer answers 202);
// workers drain the queues under smooth weighted round-robin across the
// classes (high:normal:low = 4:2:1), so a burst of low-priority bulk work
// cannot starve interactive-class jobs and vice versa. Each worker executes
// its job one chunk at a time via the Runner seam (implemented by
// internal/serve's session manager), committing a durable job record after
// every chunk; the session layer checkpoints the simulation state on the
// same boundary, so together the two records make the pair
// (job progress, particle state) crash-consistent. On restart every
// non-terminal record is re-enqueued and resumes from the recovered
// session's step count.
//
// Transient step faults (admission shedding, slot contention) are retried
// with exponential backoff up to a budget; anything else fails the job.
// Cancellation is cooperative: a cancelled running job stops at the next
// step boundary and keeps its partial artifacts. Terminal jobs
// (succeeded/failed/cancelled) expose the final snapshot and trace of
// their session as downloadable artifacts until the record is deleted or
// pruned by retention. See DESIGN.md §10.
package jobs

import (
	"errors"
	"fmt"
	"time"

	"nbody/internal/obs"
	"nbody/internal/simcfg"
	"nbody/internal/store"
)

// Typed errors the HTTP layer maps onto status codes and envelope codes.
var (
	// ErrNotFound reports an unknown job ID (404).
	ErrNotFound = errors.New("jobs: job not found")
	// ErrQueueFull reports that the job queue is at capacity; the
	// submission was shed instead of queued (429 + Retry-After).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuotaExceeded reports a submission by a tenant already at its
	// per-tenant queued-job quota (429, error code quota_exceeded). Unlike
	// ErrQueueFull it signals the tenant's own backlog, not the service's.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
	// ErrBadRequest reports an invalid job spec (400).
	ErrBadRequest = errors.New("jobs: invalid request")
	// ErrInvalidConfig reports a job spec whose physics configuration
	// failed validation (400, error code invalid_config).
	ErrInvalidConfig = errors.New("jobs: invalid config")
	// ErrNotReady reports an artifact request against a job that has no
	// session yet (409).
	ErrNotReady = errors.New("jobs: artifact not available yet")
	// ErrShutdown reports a submission while the pool is draining (503).
	ErrShutdown = errors.New("jobs: job queue shutting down")
	// ErrNotQueued reports a reprioritization of a job that is no longer
	// (or never was) waiting in a queue — running and terminal jobs keep
	// their class (409, error code job_not_queued).
	ErrNotQueued = errors.New("jobs: job is not queued")
	// ErrTransient marks a Runner error as retryable: the executor backs
	// off and retries the chunk instead of failing the job. The serve
	// adapter wraps admission shedding and slot contention with it.
	ErrTransient = errors.New("jobs: transient fault")
	// errCancelled is the cancellation cause of a job's context.
	errCancelled = errors.New("jobs: job cancelled")
)

// Queue-full Retry-After estimates are clamped to [retryAfterMin,
// retryAfterMax] seconds; chunkEWMAAlpha weighs the newest chunk-time
// sample in the moving average behind them (see queueRetryAfterLocked).
const (
	retryAfterMin  = 1
	retryAfterMax  = 30
	chunkEWMAAlpha = 0.2
)

// retryHint wraps ErrQueueFull with a computed client backoff in seconds.
// The serve layer discovers it through errors.As against any error with a
// RetryAfterSeconds method and surfaces it as the 429's Retry-After.
type retryHint struct {
	error
	seconds int
}

func (h retryHint) Unwrap() error          { return h.error }
func (h retryHint) RetryAfterSeconds() int { return h.seconds }

// State is a job's position in the lifecycle
// queued → running → succeeded | failed | cancelled, with a
// running → queued backward edge on drain/restart re-enqueue.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Priority classes and their weighted-fair scheduling weights. Out of
// every 7 dequeues with all classes backlogged, high-class jobs get 4,
// normal 2, low 1.
const (
	ClassHigh   = "high"
	ClassNormal = "normal"
	ClassLow    = "low"
)

// classWeights orders the classes for the scheduler; the order also breaks
// credit ties deterministically (higher class first).
var classWeights = []struct {
	name   string
	weight int
}{
	{ClassHigh, 4},
	{ClassNormal, 2},
	{ClassLow, 1},
}

// Classes returns the legal priority class names, highest weight first.
func Classes() []string {
	out := make([]string, len(classWeights))
	for i, c := range classWeights {
		out[i] = c.name
	}
	return out
}

func validClass(name string) bool {
	for _, c := range classWeights {
		if c.name == name {
			return true
		}
	}
	return false
}

// Spec is the JSON body of POST /v1/jobs: what to simulate plus the batch
// parameters. Submit resolves the embedded simcfg.Spec once; from then on
// Workload/N/Seed hold the generator the job runs (a scenario pack
// expanded) and the resolved config travels beside the spec.
type Spec struct {
	simcfg.Spec

	// Tenant is the submitting tenant's name, stamped server-side from the
	// authenticated request context — never decoded from the wire (the HTTP
	// layer's DisallowUnknownFields rejects a client-sent "tenant" key). It
	// drives the per-tenant queue quota and tenant-fair dequeueing.
	Tenant string `json:"-"`

	// ID, when non-empty, is the job ID to create under instead of a
	// manager-minted one. It must satisfy store.ValidID and must not be
	// taken. The router tier uses this (via the X-NBody-ID header) so the
	// ID a job lives under is the key its shard was picked by, and so a
	// drain handoff can resubmit a queued job on another shard without
	// changing its identity.
	ID string `json:"id,omitempty"`
	// Steps is the total leapfrog steps the job integrates. Required,
	// bounded by Config.MaxJobSteps.
	Steps int `json:"steps"`
	// Class is the priority class: "high", "normal" (default) or "low".
	Class string `json:"class"`
	// ChunkSteps overrides the checkpoint chunk size (0 = the pool's
	// default). Progress is committed after every chunk, so it bounds how
	// much work a crash or drain can lose.
	ChunkSteps int `json:"chunk_steps"`
}

// Info is the JSON description of a job.
type Info struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Class    string `json:"class"`
	Workload string `json:"workload,omitempty"`
	// Algorithm and DT summarize Config, like a session description's.
	Algorithm  string  `json:"algorithm,omitempty"`
	N          int     `json:"n"`
	DT         float64 `json:"dt"`
	Seed       uint64  `json:"seed"`
	ChunkSteps int     `json:"chunk_steps,omitempty"`
	// Config is the fully resolved physics configuration the job's
	// sessions run with (every default applied) — with Workload/N/Seed,
	// ChunkSteps and Class, everything a router drain handoff needs to
	// resubmit a queued job elsewhere. Its Scenario field echoes the pack
	// name when the job was submitted from a scenario.
	Config simcfg.Effective `json:"config"`
	// Scenario is the scenario-pack name the job was submitted from ("" for
	// raw workload/n/seed submissions).
	Scenario string `json:"scenario,omitempty"`
	// Tenant is the submitting tenant's name (multi-tenant deployments
	// only).
	Tenant    string    `json:"tenant,omitempty"`
	Steps     int       `json:"steps"`
	StepsDone int       `json:"steps_done"`
	SessionID string    `json:"session_id,omitempty"`
	Attempts  int       `json:"attempts,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// Config parameterizes a Manager.
type Config struct {
	// Runner executes job chunks against the session layer. Required.
	Runner Runner
	// Workers is the fixed worker pool size. Default 2.
	Workers int
	// MaxQueue bounds jobs waiting across all classes; submissions beyond
	// it are shed with ErrQueueFull. Default 64.
	MaxQueue int
	// TenantQueues declares the deployment's tenant names and their
	// queued-job quotas: a submission by a tenant already at its quota is
	// shed with ErrQuotaExceeded (429 + per-tenant Retry-After) even when
	// the global queue has room. A zero quota declares the tenant — its
	// metric series render from the first scrape — without bounding it.
	// Untenanted submissions are governed only by MaxQueue.
	TenantQueues map[string]int
	// MaxRetries is the per-job budget of transient-fault retries between
	// successful chunks. Default 3; negative disables retries entirely.
	MaxRetries int
	// RetryBase is the first retry's backoff; each further attempt
	// doubles it up to RetryMax. Default 250ms.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff. Default 15s.
	RetryMax time.Duration
	// ChunkSteps is the default checkpoint chunk size. Default 500. Keep
	// it within the session layer's per-request step budget.
	ChunkSteps int
	// ChunkTimeout, when > 0, is the watchdog on a single chunk (and on
	// backing-session creation): a chunk that exceeds it is abandoned and
	// classified as a transient fault, so the job retries with backoff
	// instead of wedging a worker forever on a hung session layer. Size
	// it well above a chunk's honest worst case. 0 disables the watchdog.
	ChunkTimeout time.Duration
	// MaxJobSteps bounds Spec.Steps. Default 10,000,000.
	MaxJobSteps int
	// MaxRecords bounds how many job records (queued, running and
	// terminal) the manager retains; beyond it the oldest-finished
	// terminal records are pruned, deleting their store records and
	// backing sessions. Default 1024.
	MaxRecords int
	// Store, when non-nil, makes jobs durable: every state transition and
	// chunk commit persists the record, and NewManager re-enqueues
	// whatever non-terminal records it recovers. Nil keeps the queue
	// in-memory.
	Store *store.JobStore
	// Obs, when non-nil, wires the queue into the observability layer
	// (queue-depth gauges, per-class wait/run histograms, retry/requeue
	// counters, job spans). Nil defaults to obs.Nop().
	Obs *obs.Observer
	// ShardID, when non-empty, prefixes manager-minted job IDs
	// ("<shard>-j-<n>") so IDs stay globally unique across replicas behind
	// a router. Must satisfy store.ValidID.
	ShardID string
}

// withDefaults validates cfg and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Runner == nil {
		return c, errors.New("jobs: Runner must not be nil")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	for name, q := range c.TenantQueues {
		if q < 0 {
			return c, fmt.Errorf("jobs: TenantQueues[%q] = %d must be >= 0", name, q)
		}
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 15 * time.Second
	}
	if c.ChunkSteps <= 0 {
		c.ChunkSteps = 500
	}
	if c.MaxJobSteps <= 0 {
		c.MaxJobSteps = 10_000_000
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.Nop()
	}
	if c.Obs.Registry == nil {
		return c, errors.New("jobs: Obs.Registry must not be nil")
	}
	if c.ShardID != "" {
		if err := store.ValidID(c.ShardID); err != nil {
			return c, fmt.Errorf("jobs: ShardID: %w", err)
		}
	}
	return c, nil
}
