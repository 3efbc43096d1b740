package serve

// Wiring between the batch job queue (internal/jobs) and the session
// layer: the Runner adapter that lets job workers drive sessions through
// the same admission, checkpoint and quarantine machinery as interactive
// requests, and the /v1/jobs HTTP routes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nbody/internal/jobs"
	"nbody/internal/simcfg"
	"nbody/internal/workload"
)

// maxJobJSON bounds the JSON body of POST /v1/jobs.
const maxJobJSON = 1 << 20

// sessionRunner adapts a session Manager to the jobs.Runner seam. Faults
// the session layer sheds under load (admission queue full, session limit,
// a concurrent request holding the session) are wrapped with
// jobs.ErrTransient so the executor retries them with backoff; everything
// else (bad spec, quarantined session, shutdown) fails the job.
type sessionRunner struct{ m *Manager }

// NewJobRunner returns the jobs.Runner backed by m.
func NewJobRunner(m *Manager) jobs.Runner { return sessionRunner{m} }

// ValidateSession vets the resolved spec's generator synchronously,
// without building the body system: the body count against service limits
// and the workload name (probed at a trivial body count).
func (r sessionRunner) ValidateSession(spec jobs.Spec) error {
	if err := r.m.checkBodies(spec.N); err != nil {
		return err
	}
	name := spec.Workload
	if name == "" {
		name = "plummer"
	}
	_, err := workload.ByName(name, 2, spec.Seed)
	return err
}

// CreateSession carries the tenant along so the backing session counts
// against the submitting tenant's session quota and attribution.
func (r sessionRunner) CreateSession(ctx context.Context, spec jobs.Spec, eff simcfg.Effective) (string, error) {
	info, err := r.m.createResolved(ctx, CreateRequest{Spec: spec.Spec, tenant: spec.Tenant}, eff)
	if err != nil {
		return "", transient(err)
	}
	return info.ID, nil
}

// StepSession advances the job's session, clamping the chunk to the
// per-request step budget so an oversized job chunk degrades to more
// requests instead of a permanent ErrBadRequest failure.
func (r sessionRunner) StepSession(ctx context.Context, id string, n int) (int, error) {
	if max := r.m.Config().MaxStepsPerRequest; n > max {
		n = max
	}
	res, err := r.m.Step(ctx, id, n)
	if err != nil {
		return res.Completed, transient(err)
	}
	return res.Completed, nil
}

func (r sessionRunner) SessionSteps(id string) (int, error) {
	info, err := r.m.Get(id)
	if err != nil {
		return 0, err
	}
	return info.Steps, nil
}

func (r sessionRunner) WriteSnapshot(id string, w io.Writer) error { return r.m.WriteSnapshot(id, w) }
func (r sessionRunner) WriteTrace(id string, w io.Writer) error    { return r.m.WriteTrace(id, w) }

func (r sessionRunner) DeleteSession(ctx context.Context, id string) error {
	if err := r.m.Delete(ctx, id); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	return nil
}

// transient wraps the session layer's load-shedding errors with
// jobs.ErrTransient; other errors pass through for permanent
// classification.
func transient(err error) error {
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrTooManySessions) || errors.Is(err, ErrConflict) {
		return fmt.Errorf("%w: %w", jobs.ErrTransient, err)
	}
	return err
}

// jobListResponse is the body of GET /v1/jobs.
type jobListResponse struct {
	Jobs []jobs.Info `json:"jobs"`
}

// registerJobRoutes mounts the batch-job API:
//
//	POST   /v1/jobs               submit (jobs.Spec JSON) → 202 + Location
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	PATCH  /v1/jobs/{id}          reprioritize a queued job ({"class": ...})
//	DELETE /v1/jobs/{id}          cancel (queued/running) or delete (terminal)
//	GET    /v1/jobs/{id}/snapshot final (or latest) snapshot artifact
//	GET    /v1/jobs/{id}/trace    diagnostics trace artifact (CSV)
//
// record is NewHandler's route-pattern middleware.
func registerJobRoutes(mux *http.ServeMux, record func(http.HandlerFunc) http.HandlerFunc, jm *jobs.Manager) {
	mux.HandleFunc("POST /v1/jobs", record(func(w http.ResponseWriter, r *http.Request) {
		var spec jobs.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, bodyError(jobs.ErrBadRequest, err))
			return
		}
		if id := r.Header.Get(IDHeader); id != "" {
			spec.ID = id
		}
		// The submitting tenant comes from the authenticated context, never
		// from the body (Tenant is json:"-", and DisallowUnknownFields
		// above rejects a wire attempt).
		spec.Tenant = TenantFrom(r.Context())
		info, err := jm.Submit(r.Context(), spec)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+info.ID)
		writeJSON(w, http.StatusAccepted, info)
	}))
	mux.HandleFunc("GET /v1/jobs", record(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, jobListResponse{Jobs: jm.List()})
	}))
	mux.HandleFunc("GET /v1/jobs/{id}", record(func(w http.ResponseWriter, r *http.Request) {
		info, err := jm.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}))
	mux.HandleFunc("PATCH /v1/jobs/{id}", record(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Class string `json:"class"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			writeError(w, fmt.Errorf("%w: body: %v", jobs.ErrBadRequest, err))
			return
		}
		if body.Class == "" {
			writeError(w, fmt.Errorf("%w: class is required", jobs.ErrBadRequest))
			return
		}
		info, err := jm.Reprioritize(r.Context(), r.PathValue("id"), body.Class)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}))
	mux.HandleFunc("DELETE /v1/jobs/{id}", record(func(w http.ResponseWriter, r *http.Request) {
		info, deleted, err := jm.Cancel(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		if deleted {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/snapshot", record(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", snapshotContentType)
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".nbsnap"))
		if err := jm.WriteSnapshot(id, w); err != nil {
			// Same mid-stream rule as the session snapshot download: only
			// pre-write failures are reportable as JSON.
			if errors.Is(err, jobs.ErrNotFound) || errors.Is(err, jobs.ErrNotReady) || errors.Is(err, ErrNotFound) {
				writeError(w, err)
			}
		}
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", record(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", "text/csv")
		if err := jm.WriteTrace(id, w); err != nil {
			if errors.Is(err, jobs.ErrNotFound) || errors.Is(err, jobs.ErrNotReady) || errors.Is(err, ErrNotFound) {
				writeError(w, err)
			}
		}
	}))
}
