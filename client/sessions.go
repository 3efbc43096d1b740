package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Session mirrors the service's session description (serve.Info).
type Session struct {
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
	// Config is the fully resolved physics configuration the session
	// runs with (every server default applied). Its Scenario field echoes
	// the scenario-pack name for pack-created sessions.
	Config EffectiveConfig `json:"config"`
	// Tenant is the owning tenant's name (multi-tenant servers only).
	Tenant     string `json:"tenant,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
}

// CreateSessionRequest mirrors the JSON body of POST /v1/sessions.
type CreateSessionRequest struct {
	Workload string `json:"workload,omitempty"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed,omitempty"`

	// Scenario creates the session from a named scenario pack instead of
	// raw workload/n/seed (mutually exclusive with those fields; put the
	// overrides inside the scenario object).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`

	// Config is the physics configuration (explicit zeros honoured). With
	// a scenario it is merged over the pack's preset.
	Config *SessionConfig `json:"config,omitempty"`

	ValidateEvery int `json:"validate_every,omitempty"`
}

// StepResult mirrors the response of POST /v1/sessions/{id}/step.
type StepResult struct {
	ID             string  `json:"id"`
	Requested      int     `json:"requested"`
	Completed      int     `json:"completed"`
	Steps          int     `json:"steps"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Interrupted    bool    `json:"interrupted,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// CreateSession creates a new session from a workload generator spec.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (Session, error) {
	var s Session
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", nil, req, &s)
	return s, err
}

// Session returns one session's description.
func (c *Client) Session(ctx context.Context, id string) (Session, error) {
	var s Session
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, nil, &s)
	return s, err
}

// DeleteSession removes a session, cancelling any in-flight run.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil, nil)
}

// Step advances a session by steps. On an interrupted request the
// returned StepResult still carries the partial progress the server
// reported alongside the non-nil error.
func (c *Client) Step(ctx context.Context, id string, steps int) (StepResult, error) {
	var res StepResult
	body := struct {
		Steps int `json:"steps"`
	}{steps}
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/step", nil, body, &res)
	if err != nil {
		// An interrupted step answers with the error envelope wrapping the
		// partial result; surface it so callers can resume.
		var ae *APIError
		if asAPIError(err, &ae) && len(ae.Partial) > 0 {
			json.Unmarshal(ae.Partial, &res)
		}
	}
	return res, err
}

// ListSessions returns one page of sessions ordered by session ID,
// starting after cursor ("" = from the beginning), plus the next page's
// cursor ("" on the final page). limit 0 uses the server default.
func (c *Client) ListSessions(ctx context.Context, limit int, cursor string) ([]Session, string, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	var page struct {
		Sessions   []Session `json:"sessions"`
		NextCursor string    `json:"next_cursor"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/sessions", q, nil, &page); err != nil {
		return nil, "", err
	}
	return page.Sessions, page.NextCursor, nil
}

// Sessions iterates over every session, following the list cursor page by
// page. A fetch error is yielded once (with a zero Session) and ends the
// iteration. pageSize 0 uses the server default.
//
//	for s, err := range c.Sessions(ctx, 0) {
//	    if err != nil { return err }
//	    ...
//	}
func (c *Client) Sessions(ctx context.Context, pageSize int) iter.Seq2[Session, error] {
	return func(yield func(Session, error) bool) {
		cursor := ""
		for {
			page, next, err := c.ListSessions(ctx, pageSize, cursor)
			if err != nil {
				yield(Session{}, err)
				return
			}
			for _, s := range page {
				if !yield(s, nil) {
					return
				}
			}
			if next == "" {
				return
			}
			cursor = next
		}
	}
}

// snapshotContentType is the media type of the binary checkpoint wire
// format on the upload and download paths.
const snapshotContentType = "application/x-nbody-snapshot"

// SnapshotParams are the simulation parameters accompanying a snapshot
// upload (the checkpoint carries positions/velocities/masses but not the
// solver configuration), sent as the JSON-encoded `config` query
// parameter. Config.DT is required > 0.
type SnapshotParams struct {
	// Config is the physics configuration (explicit zeros honoured).
	Config *SessionConfig
}

func (p SnapshotParams) query() (url.Values, error) {
	q := url.Values{}
	if p.Config != nil {
		b, err := json.Marshal(p.Config)
		if err != nil {
			return nil, fmt.Errorf("client: encoding snapshot config: %w", err)
		}
		q.Set("config", string(b))
	}
	return q, nil
}

// CreateSessionFromSnapshot uploads a binary checkpoint (the snapshot
// wire format, e.g. a prior DownloadSnapshot) and resumes it as a new
// session. The upload streams r and is therefore never retried; callers
// wanting retry should buffer and re-call.
func (c *Client) CreateSessionFromSnapshot(ctx context.Context, r io.Reader, p SnapshotParams) (Session, error) {
	u := c.baseURL + "/v1/sessions"
	q, err := p.query()
	if err != nil {
		return Session{}, err
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, r)
	if err != nil {
		return Session{}, fmt.Errorf("client: POST /v1/sessions: %w", err)
	}
	req.Header.Set("Content-Type", snapshotContentType)
	c.authorize(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return Session{}, fmt.Errorf("client: POST /v1/sessions: %w", err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return Session{}, decodeAPIError(resp, body)
	}
	if rerr != nil {
		return Session{}, fmt.Errorf("client: reading create response: %w", rerr)
	}
	var s Session
	if err := json.Unmarshal(body, &s); err != nil {
		return Session{}, fmt.Errorf("client: decoding create response: %w", err)
	}
	return s, nil
}

// DownloadSnapshot streams a session's binary checkpoint. The caller must
// Close the returned reader. The format's trailing checksum flags
// truncation, so verify with the snapshot tooling before trusting a
// download that ended early.
func (c *Client) DownloadSnapshot(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.getStream(ctx, "/v1/sessions/"+url.PathEscape(id)+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// SessionTrace streams a session's accumulated diagnostics trace (CSV).
// The caller must Close the returned reader.
func (c *Client) SessionTrace(ctx context.Context, id string) (io.ReadCloser, error) {
	resp, err := c.getStream(ctx, "/v1/sessions/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// asAPIError is errors.As specialized to *APIError without re-importing
// errors at every call site.
func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			*target = ae
			return true
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			return false
		}
	}
	return false
}
