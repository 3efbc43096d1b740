package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Job states, mirrored from the service.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobSucceeded = "succeeded"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job priority classes.
const (
	JobClassHigh   = "high"
	JobClassNormal = "normal"
	JobClassLow    = "low"
)

// JobSpec mirrors the JSON body of POST /v1/jobs: the backing session's
// parameters plus the batch step count, priority class and checkpoint
// chunk size.
type JobSpec struct {
	// ID, when non-empty, requests the job be created under this ID
	// instead of a server-minted one (must be unique and well-formed).
	// The router tier relies on this to pin a job to the shard its ID
	// hashes to.
	ID       string `json:"id,omitempty"`
	Workload string `json:"workload,omitempty"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed,omitempty"`

	// Scenario derives the backing session from a named scenario pack
	// instead of raw workload/n/seed (mutually exclusive with those
	// fields; put the overrides inside the scenario object).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`

	// Config is the physics configuration (explicit zeros honoured). With
	// a scenario it is merged over the pack's preset.
	Config *SessionConfig `json:"config,omitempty"`

	Steps      int    `json:"steps"`
	Class      string `json:"class,omitempty"`
	ChunkSteps int    `json:"chunk_steps,omitempty"`
}

// Job mirrors the service's job description (jobs.Info).
type Job struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Class    string `json:"class"`
	Workload string `json:"workload,omitempty"`
	// Algorithm and DT summarize Config, like a Session's.
	Algorithm  string  `json:"algorithm,omitempty"`
	N          int     `json:"n"`
	DT         float64 `json:"dt"`
	Seed       uint64  `json:"seed"`
	ChunkSteps int     `json:"chunk_steps,omitempty"`
	// Config is the fully resolved physics configuration the job runs
	// with. With Workload/N/Seed, ChunkSteps and Class it is everything
	// Spec needs to resubmit the job on another shard.
	Config EffectiveConfig `json:"config"`
	// Scenario echoes the scenario-pack name for pack-submitted jobs.
	Scenario string `json:"scenario,omitempty"`
	// Tenant is the submitting tenant's name (multi-tenant servers only).
	Tenant    string    `json:"tenant,omitempty"`
	Steps     int       `json:"steps"`
	StepsDone int       `json:"steps_done"`
	SessionID string    `json:"session_id,omitempty"`
	Attempts  int       `json:"attempts,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// Spec reconstructs the submission spec from a job record, the input a
// drain handoff needs to resubmit the job elsewhere under the same ID.
// The resolved config is resubmitted with every field pinned, so the
// handoff reproduces the exact physics, explicit zeros included.
func (j Job) Spec() JobSpec {
	spec := JobSpec{
		ID:         j.ID,
		Workload:   j.Workload,
		N:          j.N,
		Seed:       j.Seed,
		Config:     j.Config.Request(),
		Steps:      j.Steps,
		Class:      j.Class,
		ChunkSteps: j.ChunkSteps,
	}
	name := j.Scenario
	if name == "" {
		name = j.Config.Scenario
	}
	if name != "" {
		// Scenario and top-level workload/n/seed are mutually exclusive on
		// submission, so the handoff re-spells the generator parameters
		// inside the scenario object; the pinned config reproduces the
		// physics regardless of the pack preset.
		spec.Scenario = &ScenarioSpec{Name: name, N: j.N, Seed: j.Seed}
		spec.Workload, spec.N, spec.Seed = "", 0, 0
	}
	return spec
}

// Terminal reports whether the job reached a final state.
func (j Job) Terminal() bool {
	return j.State == JobSucceeded || j.State == JobFailed || j.State == JobCancelled
}

// SubmitJob enqueues a batch job (the server answers 202 Accepted with
// the queued record; execution is asynchronous — poll with Job or
// WaitJob).
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (Job, error) {
	var j Job
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", nil, spec, &j)
	return j, err
}

// Job returns one job's status.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, &j)
	return j, err
}

// Jobs lists every retained job record.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var page struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, nil, &page); err != nil {
		return nil, err
	}
	return page.Jobs, nil
}

// ReprioritizeJob moves a queued job to another priority class. Only
// queued jobs can move; running or terminal jobs answer 409
// job_not_queued.
func (c *Client) ReprioritizeJob(ctx context.Context, id, class string) (Job, error) {
	var j Job
	in := struct {
		Class string `json:"class"`
	}{Class: class}
	err := c.doJSON(ctx, http.MethodPatch, "/v1/jobs/"+url.PathEscape(id), nil, in, &j)
	return j, err
}

// CancelJob cancels a queued or running job, or deletes a terminal one.
// deleted reports the latter (the record is gone and job is zero);
// otherwise job is the cancelled record.
func (c *Client) CancelJob(ctx context.Context, id string) (job Job, deleted bool, err error) {
	rb, _, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, "", nil)
	if err != nil {
		return Job{}, false, err
	}
	if len(rb) == 0 {
		// 204: terminal record deleted.
		return Job{}, true, nil
	}
	if err := json.Unmarshal(rb, &job); err != nil {
		return Job{}, false, fmt.Errorf("client: decoding cancel response: %w", err)
	}
	return job, false, nil
}

// JobSnapshot streams a job's snapshot artifact (the final checkpoint of
// a terminal job, the latest one otherwise). The caller must Close the
// returned reader. Jobs that have not created a session yet answer 409
// job_not_ready.
func (c *Client) JobSnapshot(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.getStream(ctx, "/v1/jobs/"+url.PathEscape(id)+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// JobTrace streams a job's diagnostics trace artifact (CSV). The caller
// must Close the returned reader.
func (c *Client) JobTrace(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.getStream(ctx, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// WaitJob polls a job until it reaches a terminal state or the context
// ends. poll 0 uses 250ms.
//
// A wait can race the job's deletion: DELETE on a terminal job removes
// the record entirely, so a poll that lands after a concurrent
// cancel-then-delete (or after the record was cancelled and pruned)
// answers 404 job_not_found even though the job did reach a terminal
// state. Erroring there would misreport a perfectly normal outcome, so
// once the job has been observed at least once, a job_not_found ends the
// wait successfully with the last observed record marked cancelled. A 404
// on the very first poll still errors — that really is an unknown ID.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	var last Job
	seen := false
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			var ae *APIError
			if seen && asAPIError(err, &ae) && ae.Code == CodeJobNotFound {
				last.State = JobCancelled
				if last.Finished.IsZero() {
					last.Finished = time.Now()
				}
				return last, nil
			}
			return Job{}, err
		}
		if j.Terminal() {
			return j, nil
		}
		last, seen = j, true
		if err := c.sleep(ctx, poll); err != nil {
			return j, err
		}
	}
}
