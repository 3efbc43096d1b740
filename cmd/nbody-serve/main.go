// Command nbody-serve runs the simulation service: many independent N-body
// sessions multiplexed over one machine behind a JSON HTTP API, with
// admission control, streaming diagnostics and graceful drain on SIGTERM.
//
// Examples:
//
//	nbody-serve -addr :8080 -max-sessions 64 -max-bodies 1000000 -idle-ttl 10m
//	curl -s localhost:8080/v1/sessions -d '{"workload":"galaxy","n":10000,"config":{"dt":1e-3}}'
//	curl -s localhost:8080/v1/sessions/s-1/step -d '{"steps":100}'
//	curl -s localhost:8080/metrics   # Prometheus exposition
//
// See the README "Serving" section for the full API walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/par"
	"nbody/internal/serve"
	"nbody/internal/soa"
	"nbody/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbody-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxSessions = flag.Int("max-sessions", 64, "maximum live sessions (admission limit)")
		maxBodies   = flag.Int("max-bodies", 1_000_000, "maximum bodies per session")
		idleTTL     = flag.Duration("idle-ttl", 10*time.Minute, "idle session eviction age")
		stepSlots   = flag.Int("step-slots", 2, "sessions stepping concurrently")
		maxQueue    = flag.Int("max-queue", 0, "step requests allowed to wait for a slot (0 = step-slots)")
		maxSteps    = flag.Int("max-steps-per-request", 10_000, "per-request step budget")
		execWorkers = flag.Int("exec-workers", 0, "phase-graph executor pool size for pipelined sessions (0 = step-slots)")
		workers     = flag.Int("workers", 0, "total worker goroutines across all slots (0 = GOMAXPROCS)")
		schedStr    = flag.String("sched", "dynamic", "scheduler: dynamic, static, guided")
		drain       = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
		stateDir    = flag.String("state-dir", "", "checkpoint directory for crash-safe session durability (empty = in-memory only)")
		ckptEvery   = flag.Int("checkpoint-every", 500, "also checkpoint mid-run every N steps (0 = only at request end; needs -state-dir)")
		maxDrift    = flag.Float64("max-energy-drift", 0, "quarantine a session whose relative energy drift exceeds this (0 = disabled)")
		debugAddr   = flag.String("debug-addr", "", "listen address for the debug mux (pprof + span ring); empty = disabled")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		jobWorkers  = flag.Int("job-workers", 2, "batch job worker pool size (0 = disable the /v1/jobs API)")
		jobQueue    = flag.Int("job-queue", 64, "batch jobs allowed to wait across all priority classes")
		jobRetries  = flag.Int("job-retries", 3, "transient-fault retries per batch job between successful chunks")
		jobChunk    = flag.Int("job-chunk", 500, "batch job checkpoint chunk size in steps")
		jobChunkTO  = flag.Duration("job-chunk-timeout", 0, "watchdog: a single batch-job chunk exceeding this is aborted and retried as a transient fault (0 = disabled)")
		shardID     = flag.String("shard-id", "", "replica name in a sharded deployment (echoed as X-NBody-Shard, prefixes minted IDs)")
		tenantsFile = flag.String("tenants", "", "tenant keyfile (JSON array of {name, key, quotas}); non-empty turns on multi-tenant mode: bearer-token auth on /v1, per-tenant quotas and fair queueing")
	)
	flag.Parse()

	// Reject nonsense before it turns into a confusing runtime state.
	if *addr == "" {
		return errors.New("-addr must not be empty")
	}
	if *maxSessions <= 0 {
		return fmt.Errorf("-max-sessions must be > 0 (got %d)", *maxSessions)
	}
	if *maxBodies <= 0 {
		return fmt.Errorf("-max-bodies must be > 0 (got %d)", *maxBodies)
	}
	if *idleTTL <= 0 {
		return fmt.Errorf("-idle-ttl must be > 0 (got %v)", *idleTTL)
	}
	if *stepSlots <= 0 {
		return fmt.Errorf("-step-slots must be > 0 (got %d)", *stepSlots)
	}
	if *maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0 (got %d)", *maxQueue)
	}
	if *maxSteps <= 0 {
		return fmt.Errorf("-max-steps-per-request must be > 0 (got %d)", *maxSteps)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", *workers)
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", *drain)
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", *ckptEvery)
	}
	if *maxDrift < 0 {
		return fmt.Errorf("-max-energy-drift must be >= 0 (got %g)", *maxDrift)
	}
	if *jobWorkers < 0 {
		return fmt.Errorf("-job-workers must be >= 0 (got %d)", *jobWorkers)
	}
	if *jobQueue <= 0 {
		return fmt.Errorf("-job-queue must be > 0 (got %d)", *jobQueue)
	}
	if *jobRetries < 0 {
		return fmt.Errorf("-job-retries must be >= 0 (got %d)", *jobRetries)
	}
	if *jobChunk <= 0 || *jobChunk > *maxSteps {
		return fmt.Errorf("-job-chunk must be in [1, -max-steps-per-request] (got %d)", *jobChunk)
	}
	sched, err := par.ParseScheduler(*schedStr)
	if err != nil {
		return err
	}

	var tenants []serve.Tenant
	if *tenantsFile != "" {
		if tenants, err = serve.LoadTenants(*tenantsFile); err != nil {
			return err
		}
	}

	ob, err := obs.NewObserver(os.Stderr, *logFormat, obs.DefaultTraceCapacity)
	if err != nil {
		return err
	}

	var st *store.Store
	if *stateDir != "" {
		if st, err = store.Open(*stateDir); err != nil {
			return err
		}
	}

	// Divide the machine between the stepping slots: each concurrently
	// stepping session gets total/slots workers so the slots together
	// saturate — but do not oversubscribe — the runtime's capacity.
	total := par.NewRuntime(*workers, sched).Workers()
	perSession := total / *stepSlots
	if perSession < 1 {
		perSession = 1
	}

	m, err := serve.NewManager(serve.Config{
		MaxSessions:        *maxSessions,
		MaxBodies:          *maxBodies,
		IdleTTL:            *idleTTL,
		StepSlots:          *stepSlots,
		MaxQueue:           *maxQueue,
		MaxStepsPerRequest: *maxSteps,
		ExecWorkers:        *execWorkers,
		Runtime:            par.NewRuntime(perSession, sched),
		Store:              st,
		CheckpointEvery:    *ckptEvery,
		MaxEnergyDrift:     *maxDrift,
		Obs:                ob,
		ShardID:            *shardID,
		Tenants:            tenants,
	})
	if err != nil {
		return err
	}
	if st != nil {
		snap := m.Metrics()
		log.Printf("state dir %s: recovered %d session(s), quarantined %d corrupt checkpoint(s)",
			st.Dir(), snap.RecoveredTotal, snap.QuarantinedTotal)
	}

	// The batch job queue rides on the session manager. Job records are
	// durable only when sessions are (-state-dir), living in the jobs/
	// subdirectory so the session recovery scan never sees them.
	var jm *jobs.Manager
	if *jobWorkers > 0 {
		var js *store.JobStore
		if *stateDir != "" {
			if js, err = store.OpenJobs(filepath.Join(*stateDir, "jobs")); err != nil {
				return err
			}
		}
		retries := *jobRetries
		if retries == 0 {
			retries = -1 // the Config sentinel: 0 means default, negative disables
		}
		// The keyfile's queued-job quotas carry into the job queue; tenants
		// without one are still declared (quota 0 = unlimited) so their
		// metric series exist from boot.
		var tenantQueues map[string]int
		if len(tenants) > 0 {
			tenantQueues = make(map[string]int, len(tenants))
			for _, t := range tenants {
				tenantQueues[t.Name] = t.MaxQueuedJobs
			}
		}
		jm, err = jobs.NewManager(jobs.Config{
			Runner:       serve.NewJobRunner(m),
			Workers:      *jobWorkers,
			MaxQueue:     *jobQueue,
			TenantQueues: tenantQueues,
			MaxRetries:   retries,
			ChunkSteps:   *jobChunk,
			ChunkTimeout: *jobChunkTO,
			Store:        js,
			Obs:          ob,
			ShardID:      *shardID,
		})
		if err != nil {
			return err
		}
		snap := jm.Snapshot()
		log.Printf("job queue: %d worker(s), queue %d, chunk %d steps, %d record(s) recovered (%d queued)",
			*jobWorkers, *jobQueue, *jobChunk, snap.Records, snap.Queued)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandlerWithJobs(m, jm),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(ob.Tracer),
			ReadHeaderTimeout: 10 * time.Second,
		}
		// The debug listener is best-effort: a failure there (port taken,
		// listener dies) must not take the service down with it.
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("debug mux (pprof, /debug/trace) on %s", *debugAddr)
	}
	if len(tenants) > 0 {
		log.Printf("multi-tenant mode: %d tenant(s) from %s", len(tenants), *tenantsFile)
	}
	log.Printf("listening on %s (max-sessions %d, max-bodies %d, idle-ttl %v, %d slots × %d workers, force kernel %s)",
		*addr, *maxSessions, *maxBodies, *idleTTL, *stepSlots, perSession, soa.Kernel())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: cancel every in-flight run at its next step
	// boundary, then let the HTTP server finish writing responses. A
	// blown drain deadline means sessions may not have reached their
	// final checkpoint — that must be visible in the log AND the exit
	// code, or supervisors treat a lossy shutdown as a clean one.
	log.Printf("signal received, draining (budget %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: drain the job pool first so running jobs checkpoint
	// at a chunk boundary and requeue through their durable records, then
	// drain the session manager, which commits the final checkpoints those
	// jobs will resume from.
	var drainErr error
	if jm != nil {
		if err := jm.Close(dctx); err != nil {
			log.Printf("job drain: %v", err)
			drainErr = err
		}
	}
	if err := m.Close(dctx); err != nil {
		log.Printf("drain: %v", err)
		drainErr = err
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("drained cleanly")
	return nil
}
