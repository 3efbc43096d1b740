package serve

// This file is the serving layer's observability seam: it adapts the
// manager's internal measurements — admission decisions, step latencies,
// each session's metrics.Breakdown phase times, checkpoint and store
// commit latencies — into internal/obs instruments. The simulation
// packages themselves stay unaware of obs (see DESIGN.md §9).

import (
	"strconv"
	"sync"

	"nbody/internal/exec"
	"nbody/internal/metrics"
	"nbody/internal/obs"
)

// instruments holds every obs metric the serving layer feeds. Names are
// stable API: they are documented in the README's Observability section
// and scraped by operators.
type instruments struct {
	// HTTP front end.
	reqTotal   *obs.CounterVec   // route, code
	reqSeconds *obs.HistogramVec // route

	// Stepping.
	stepsTotal   *obs.Counter
	stepSeconds  *obs.Histogram
	phaseSeconds *obs.HistogramVec // algorithm, phase

	// Session lifecycle and admission.
	sessionsCreated   *obs.Counter
	sessionsDeleted   *obs.Counter
	sessionsEvicted   *obs.Counter
	sessionsRecovered *obs.Counter
	admissionRejected *obs.CounterVec // kind: session | step
	failures          *obs.CounterVec // reason: panic | non_finite | energy_drift

	// Durability.
	checkpointsTotal  *obs.Counter
	checkpointErrors  *obs.Counter
	checkpointSeconds *obs.Histogram
	ckptQuarantined   *obs.Counter
	storeFsync        *obs.HistogramVec // file: snapshot | metadata
	storeRename       *obs.HistogramVec // file
	storeCommitErrors *obs.Counter

	// Live state, refreshed by the registry's collect hook at scrape time.
	sessionsByState *obs.GaugeVec // state
	slotsInUse      *obs.Gauge
	queueDepth      *obs.Gauge

	// Multi-tenant accounting (series exist only when tenants are
	// configured; label values are the configured tenant names, so
	// cardinality is bounded by the keyfile).
	tenantRequests *obs.CounterVec // tenant
	tenantRejected *obs.CounterVec // tenant, kind: auth | rate | session
	tenantSessions *obs.GaugeVec   // tenant

	// Phase-graph executor (pipelined stepping). Gauges are refreshed and
	// counters advanced by delta at scrape time from exec.Executor.Stats.
	execWorkers   *obs.Gauge
	execRunning   *obs.Gauge
	execReady     *obs.Gauge
	execInflight  *obs.Gauge
	execOccupancy *obs.Gauge
	execTasks     *obs.CounterVec // phase
	execTaskFails *obs.Counter
	execPhaseBusy *obs.CounterVec // phase
	execOverlap   *obs.Counter
	execStall     *obs.Counter
}

// count reads a counter that only ever advances by whole events as the
// integer the /v1/metrics JSON reports.
func count(c *obs.Counter) int64 { return int64(c.Value()) }

// newInstruments registers the serving layer's metric families in reg.
func newInstruments(reg *obs.Registry) *instruments {
	t := obs.TimeBuckets()
	ins := &instruments{
		reqTotal: reg.CounterVec("nbody_http_requests_total",
			"HTTP requests by route pattern and status code.", "route", "code"),
		reqSeconds: reg.HistogramVec("nbody_http_request_seconds",
			"HTTP request latency by route pattern.", t, "route"),

		stepsTotal: reg.Counter("nbody_steps_total",
			"Simulation steps completed across all sessions."),
		stepSeconds: reg.Histogram("nbody_step_seconds",
			"Wall time of one simulation step.", t),
		phaseSeconds: reg.HistogramVec("nbody_step_phase_seconds",
			"Per-step wall time of each tree-code phase (the paper's Figure 8 breakdown).",
			t, "algorithm", "phase"),

		sessionsCreated: reg.Counter("nbody_sessions_created_total",
			"Sessions admitted (JSON create or snapshot upload)."),
		sessionsDeleted: reg.Counter("nbody_sessions_deleted_total",
			"Sessions removed by DELETE."),
		sessionsEvicted: reg.Counter("nbody_sessions_evicted_total",
			"Sessions evicted after exceeding the idle TTL."),
		sessionsRecovered: reg.Counter("nbody_sessions_recovered_total",
			"Sessions restored from checkpoints at boot."),
		admissionRejected: reg.CounterVec("nbody_admission_rejected_total",
			"Requests shed by admission control (kind: session create or step).", "kind"),
		failures: reg.CounterVec("nbody_session_failures_total",
			"Sessions quarantined, by failure reason.", "reason"),

		checkpointsTotal: reg.Counter("nbody_checkpoints_total",
			"Checkpoints committed to the store."),
		checkpointErrors: reg.Counter("nbody_checkpoint_errors_total",
			"Checkpoint or store operations that failed."),
		checkpointSeconds: reg.Histogram("nbody_checkpoint_seconds",
			"End-to-end latency of one session checkpoint commit.", t),
		ckptQuarantined: reg.Counter("nbody_checkpoints_quarantined_total",
			"Corrupt or unusable checkpoints moved to quarantine."),
		storeFsync: reg.HistogramVec("nbody_store_fsync_seconds",
			"fsync latency of store file commits.", t, "file"),
		storeRename: reg.HistogramVec("nbody_store_rename_seconds",
			"rename latency of store file commits.", t, "file"),
		storeCommitErrors: reg.Counter("nbody_store_commit_errors_total",
			"Store file commits that failed at any stage."),

		tenantRequests: reg.CounterVec("nbody_tenant_requests_total",
			"Authenticated HTTP requests by tenant.", "tenant"),
		tenantRejected: reg.CounterVec("nbody_tenant_rejected_total",
			"Requests rejected per tenant by auth or quota (kind: auth, rate, session).", "tenant", "kind"),
		tenantSessions: reg.GaugeVec("nbody_tenant_sessions",
			"Live sessions by owning tenant.", "tenant"),

		sessionsByState: reg.GaugeVec("nbody_sessions",
			"Live sessions by lifecycle state.", "state"),
		slotsInUse: reg.Gauge("nbody_step_slots_in_use",
			"Step slots currently executing a run."),
		queueDepth: reg.Gauge("nbody_step_queue_depth",
			"Step requests waiting for a slot."),

		execWorkers: reg.Gauge("nbody_exec_workers",
			"Worker pool size of the phase-graph executor."),
		execRunning: reg.Gauge("nbody_exec_tasks_running",
			"Phase tasks executing right now."),
		execReady: reg.Gauge("nbody_exec_ready_queue_depth",
			"Phase tasks runnable but waiting for a worker."),
		execInflight: reg.Gauge("nbody_exec_tasks_inflight",
			"Phase tasks submitted but not finished (running + ready + blocked)."),
		execOccupancy: reg.Gauge("nbody_exec_occupancy",
			"Fraction of the executor pool currently busy, 0..1."),
		execTasks: reg.CounterVec("nbody_exec_tasks_total",
			"Phase tasks completed successfully, by phase.", "phase"),
		execTaskFails: reg.Counter("nbody_exec_task_failures_total",
			"Phase tasks that failed, including fail-fast skips after an upstream error."),
		execPhaseBusy: reg.CounterVec("nbody_exec_phase_busy_seconds_total",
			"Wall time executor workers spent running each phase.", "phase"),
		execOverlap: reg.Counter("nbody_exec_overlap_seconds_total",
			"Time with at least two phase tasks running concurrently."),
		execStall: reg.Counter("nbody_exec_stall_seconds_total",
			"Pipeline-stall time: workers idle while every in-flight task was blocked on dependencies."),
	}
	// Manager.Metrics reads these label sets; touching them here makes the
	// series render from the first scrape, not from the first JSON read.
	ins.admissionRejected.With("session")
	ins.admissionRejected.With("step")
	for _, kind := range failureKinds {
		ins.failures.With(kind)
	}
	return ins
}

// observeRequest records one finished HTTP request.
func (ins *instruments) observeRequest(route string, status int, seconds float64) {
	ins.reqTotal.With(route, strconv.Itoa(status)).Inc()
	ins.reqSeconds.With(route).Observe(seconds)
}

// observePhases feeds the per-phase histograms with the step's deltas and
// advances prev to the session's current cumulative breakdown. Call with
// s.mu held (it reads the live Breakdown).
func (ins *instruments) observePhases(algorithm string, b *metrics.Breakdown, prev []int64) {
	for _, p := range metrics.Phases() {
		cur := int64(b.Elapsed(p))
		ins.phaseSeconds.With(algorithm, p.String()).Observe(float64(cur-prev[p]) / 1e9)
		prev[p] = cur
	}
}

// installCollectors registers the scrape-time refresh of the live-state
// gauges (sessions by state, slots, queue depth, executor occupancy)
// against m. The executor exposes cumulative counters only through Stats
// snapshots, so the collector advances the obs counters by the delta since
// the previous scrape.
func (m *Manager) installCollectors() {
	ins := m.ins
	// Pre-touch the per-tenant series so every configured tenant renders
	// from the first scrape, not from its first request or rejection.
	if m.tenants != nil {
		for _, name := range m.tenants.names() {
			ins.tenantRequests.With(name)
			ins.tenantSessions.With(name)
			for _, kind := range []string{"rate", "session"} {
				ins.tenantRejected.With(name, kind)
			}
		}
		ins.tenantRejected.With("unknown", "auth")
	}
	var (
		execMu   sync.Mutex
		prevExec exec.Stats
	)
	m.cfg.Obs.Registry.OnCollect(func() {
		counts := make(map[State]int, 8)
		tenantCounts := make(map[string]int)
		m.mu.Lock()
		for _, s := range m.sessions {
			counts[s.State()]++
			if s.tenant != "" {
				tenantCounts[s.tenant]++
			}
		}
		m.mu.Unlock()
		for _, st := range []State{StateCreated, StateRunning, StateIdle, StateFailed} {
			ins.sessionsByState.With(st.String()).Set(float64(counts[st]))
		}
		if m.tenants != nil {
			for _, name := range m.tenants.names() {
				ins.tenantSessions.With(name).Set(float64(tenantCounts[name]))
			}
		}
		ins.slotsInUse.Set(float64(len(m.slots)))
		ins.queueDepth.Set(float64(m.waiting.Load()))

		st := m.ex.Stats()
		ins.execWorkers.Set(float64(st.Workers))
		ins.execRunning.Set(float64(st.Running))
		ins.execReady.Set(float64(st.ReadyDepth))
		ins.execInflight.Set(float64(st.Pending))
		ins.execOccupancy.Set(st.Occupancy())
		execMu.Lock()
		for ph, nTasks := range st.TasksByPhase {
			ins.execTasks.With(ph).Add(float64(nTasks - prevExec.TasksByPhase[ph]))
		}
		for ph, sec := range st.BusySecondsByPhase {
			ins.execPhaseBusy.With(ph).Add(sec - prevExec.BusySecondsByPhase[ph])
		}
		ins.execTaskFails.Add(float64(st.Failed - prevExec.Failed))
		ins.execOverlap.Add(st.OverlapSeconds - prevExec.OverlapSeconds)
		ins.execStall.Add(st.StallSeconds - prevExec.StallSeconds)
		prevExec = st
		execMu.Unlock()
	})
}

// storeObserver adapts internal/store's Observer callbacks onto the obs
// instruments.
type storeObserver struct{ ins *instruments }

func (o storeObserver) CommitObserved(file string, fsyncSeconds, renameSeconds float64, err error) {
	if err != nil {
		o.ins.storeCommitErrors.Inc()
		return
	}
	o.ins.storeFsync.With(file).Observe(fsyncSeconds)
	o.ins.storeRename.With(file).Observe(renameSeconds)
}
