package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// The service's stable machine-readable error codes, mirrored from the
// /v1 error envelope. Dispatch on these, never on message text.
const (
	CodeSessionNotFound = "session_not_found"
	CodeSessionFailed   = "session_failed"
	CodeSessionBusy     = "session_busy"
	CodeOverloaded      = "overloaded"
	CodeShuttingDown    = "shutting_down"
	CodeInvalidRequest  = "invalid_request"
	// CodeInvalidConfig: a field of the physics config failed validation,
	// or the request used one of the flat physics fields (dt, theta, …
	// beside workload) the config object replaced; the message names the
	// field or its successor.
	CodeInvalidConfig   = "invalid_config"
	CodeInvalidSnapshot = "invalid_snapshot"
	CodeClientClosed    = "client_closed_request"
	// CodeDeadlineExceeded: the request's propagated time budget
	// (X-NBody-Deadline, or the router's per-request cap) ran out before
	// the work finished; server-side work was abandoned at the next
	// checkpoint. Carried on 504 responses.
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
	CodeJobNotFound      = "job_not_found"
	CodeJobNotReady      = "job_not_ready"
	CodeJobNotQueued     = "job_not_queued"
	// CodeUnauthorized: the request carried no API key, or an unknown one,
	// against a multi-tenant server (401). Configure the client with
	// WithAPIKey.
	CodeUnauthorized = "unauthorized"
	// CodeQuotaExceeded: the authenticated tenant is at one of its quotas
	// (request rate, live sessions, queued jobs); other tenants are
	// unaffected. Carried on 429 with a per-tenant Retry-After.
	CodeQuotaExceeded = "quota_exceeded"
)

// Router-tier error codes: set by nbody-router when it cannot complete a
// proxied request, never by a shard itself.
const (
	// CodeShardUnavailable: the shard owning the requested ID is down and
	// the operation is a write that must not silently run elsewhere (503).
	CodeShardUnavailable = "shard_unavailable"
	// CodeNoHealthyShards: no shard is accepting new placements (503).
	CodeNoHealthyShards = "no_healthy_shards"
	// CodeBadGateway: the proxied request failed at the transport level
	// after reaching the shard, so it may or may not have applied (502).
	CodeBadGateway = "bad_gateway"
)

// APIError is any non-2xx response from the service, carrying the decoded
// error envelope alongside the HTTP status.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's stable machine-readable code (one of the
	// Code* constants), or "" when the response carried no envelope.
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// SessionState is set when the error implies a known session
	// lifecycle state (e.g. "failed" for session_failed).
	SessionState string
	// Shard names the replica that produced the error in a sharded
	// deployment (from the envelope, falling back to the X-NBody-Shard
	// header); "" when the server runs unsharded.
	Shard string
	// RetryAfter is the server's parsed Retry-After header (zero when
	// absent). The client's automatic retry honors it; it is surfaced for
	// callers that retry themselves.
	RetryAfter time.Duration
	// RequestID echoes the response's X-Request-ID for log correlation.
	RequestID string
	// Partial carries the raw "result" member of the envelope when the
	// request made partial progress before failing (an interrupted step);
	// Step decodes it into the returned StepResult.
	Partial json.RawMessage
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: %s (%d): %s", e.Code, e.Status, e.Message)
	}
	return fmt.Sprintf("client: HTTP %d: %s", e.Status, e.Message)
}

// Overloaded reports whether the error is server backpressure (a shed
// request that is safe and sensible to retry later).
func (e *APIError) Overloaded() bool {
	return e.Status == http.StatusTooManyRequests || e.Code == CodeOverloaded
}

// ErrorCode extracts the envelope code from any error returned by this
// package ("" when err is not an *APIError or carried no envelope).
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports whether err is a session_not_found or job_not_found
// response.
func IsNotFound(err error) bool {
	c := ErrorCode(err)
	return c == CodeSessionNotFound || c == CodeJobNotFound
}

// IsOverloaded reports whether err is server backpressure (429 or the
// overloaded envelope code).
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Overloaded()
}
