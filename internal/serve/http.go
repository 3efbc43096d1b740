package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/simcfg"
	"nbody/internal/snapshot"
)

// snapshotContentType is the media type of the internal/snapshot wire
// format on the upload and download paths.
const snapshotContentType = "application/x-nbody-snapshot"

// maxCreateJSON bounds the JSON body of POST /v1/sessions.
const maxCreateJSON = 1 << 20

// Stable machine-readable error codes of the v1 error envelope. Clients
// dispatch on these, never on message text.
const (
	CodeSessionNotFound  = "session_not_found"
	CodeSessionFailed    = "session_failed"
	CodeSessionBusy      = "session_busy"
	CodeOverloaded       = "overloaded"
	CodeShuttingDown     = "shutting_down"
	CodeInvalidRequest   = "invalid_request"
	CodeInvalidConfig    = "invalid_config"
	CodeInvalidSnapshot  = "invalid_snapshot"
	CodeClientClosed     = "client_closed_request"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
	CodeJobNotFound      = "job_not_found"
	CodeJobNotReady      = "job_not_ready"
	CodeJobNotQueued     = "job_not_queued"
	CodeUnauthorized     = "unauthorized"
	CodeQuotaExceeded    = "quota_exceeded"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
)

// ErrorDetail is the body of every 4xx/5xx response:
//
//	{"error":{"code":"session_not_found","message":"...","session_state":"..."}}
//
// Code is one of the Code* constants; SessionState is set when the error
// implies a known lifecycle state (e.g. "failed" for session_failed).
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	SessionState string `json:"session_state,omitempty"`
	// Shard names the replica that produced the error in a sharded
	// deployment (mirrors the X-NBody-Shard response header); empty when
	// the server runs unsharded.
	Shard string `json:"shard,omitempty"`
}

// Sharding headers: ShardHeader carries the replica name on every response
// of a shard (and of the router, which overwrites it with the shard it
// proxied to); IDHeader lets a caller — in practice the router, which picks
// shards by ID — request the ID a created session or job should live under.
const (
	ShardHeader = "X-NBody-Shard"
	IDHeader    = "X-NBody-ID"

	// DeadlineHeader carries the caller's REMAINING time budget as a Go
	// duration string ("750ms"). Relative rather than absolute so clock
	// skew between router and shard cannot corrupt it. The server clamps
	// the request context to it, abandoning work (step loops, job chunks)
	// the caller has already given up on.
	DeadlineHeader = "X-NBody-Deadline"
)

// errorResponse is the error envelope, optionally carrying the partial
// result of an interrupted step request.
type errorResponse struct {
	Error  ErrorDetail `json:"error"`
	Result *StepResult `json:"result,omitempty"`
}

// listResponse is the body of GET /v1/sessions. NextCursor, when set, is
// the cursor of the next page; its absence marks the final page.
type listResponse struct {
	Sessions   []Info `json:"sessions"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// NewHandler returns the service's HTTP API over m. The stable, versioned
// surface lives under /v1:
//
//	POST   /v1/sessions               create (JSON params, or binary snapshot upload)
//	GET    /v1/sessions               list sessions (?limit=&cursor= pagination)
//	GET    /v1/sessions/{id}          session info
//	POST   /v1/sessions/{id}/step     advance {"steps": n}
//	DELETE /v1/sessions/{id}          delete (cancels an in-flight run)
//	GET    /v1/sessions/{id}/snapshot binary checkpoint download
//	GET    /v1/sessions/{id}/watch    chunked NDJSON per-step diagnostics stream
//	GET    /v1/sessions/{id}/trace    accumulated diagnostics trace (CSV)
//	GET    /v1/metrics                service counters + step latency percentiles (JSON)
//	GET    /v1/debug/trace            recent request/step/phase spans (JSON)
//
// When a jobs.Manager is wired in (NewHandlerWithJobs), the batch-job API
// is mounted under /v1/jobs — see registerJobRoutes for the route table.
//
// Operational endpoints stay at the root:
//
//	GET    /metrics                   Prometheus text exposition
//	GET    /healthz                   liveness probe
//	GET    /readyz                    readiness probe (503 while draining)
//
// Every response carries X-Request-ID (honouring the client's, if sent),
// and every 4xx/5xx body is the JSON error envelope (ErrorDetail) —
// including the 404/405 of a request no route serves (see handleUnrouted).
func NewHandler(m *Manager) http.Handler { return NewHandlerWithJobs(m, nil) }

// NewHandlerWithJobs is NewHandler plus the batch-job API under /v1/jobs
// (see registerJobRoutes) when jm is non-nil.
func NewHandlerWithJobs(m *Manager, jm *jobs.Manager) http.Handler {
	o := m.Config().Obs
	mux := http.NewServeMux()

	// record notes the matched route pattern for the outer middleware's
	// metrics/log/span labels (the outer request object never sees the
	// pattern the mux matched).
	record := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if p, ok := r.Context().Value(routeKey).(*routeHolder); ok {
				p.pattern = r.Pattern
			}
			h(w, r)
		}
	}
	mux.HandleFunc("POST /v1/sessions", record(func(w http.ResponseWriter, r *http.Request) { handleCreate(m, w, r) }))
	mux.HandleFunc("GET /v1/sessions", record(func(w http.ResponseWriter, r *http.Request) { handleList(m, w, r) }))
	mux.HandleFunc("GET /v1/sessions/{id}", record(func(w http.ResponseWriter, r *http.Request) {
		info, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/step", record(func(w http.ResponseWriter, r *http.Request) { handleStep(m, w, r) }))
	mux.HandleFunc("DELETE /v1/sessions/{id}", record(func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.Context(), r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", record(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", snapshotContentType)
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".nbsnap"))
		if err := m.WriteSnapshot(id, w); err != nil {
			// WriteSnapshot validates before writing a byte, so a lookup
			// failure can still be reported cleanly. Any other error means
			// the binary response already started (usually the client went
			// away); appending a JSON error document would corrupt it, so
			// leave it truncated — the format's checksum flags that to the
			// reader.
			if errors.Is(err, ErrNotFound) {
				writeError(w, err)
			}
		}
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/watch", record(func(w http.ResponseWriter, r *http.Request) { handleWatch(m, w, r) }))
	mux.HandleFunc("GET /v1/sessions/{id}/trace", record(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		w.Header().Set("Content-Type", "text/csv")
		if err := m.WriteTrace(id, w); err != nil {
			// Same mid-stream rule as the snapshot download: only a lookup
			// failure is reportable; a CSV write error means the response
			// already started.
			if errors.Is(err, ErrNotFound) {
				writeError(w, err)
			}
		}
	}))

	if jm != nil {
		registerJobRoutes(mux, record, jm)
	}
	mux.HandleFunc("GET /v1/scenarios", record(func(w http.ResponseWriter, r *http.Request) { handleScenarios(w) }))

	// Versioned JSON metrics (the pre-v1 ad-hoc /metrics payload, kept as
	// a stable JSON surface for dashboards that do not scrape Prometheus).
	mux.HandleFunc("GET /v1/metrics", record(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Metrics())
	}))
	if o.Tracer != nil {
		mux.Handle("GET /v1/debug/trace", record(o.Tracer.Handler().ServeHTTP))
	}

	// Root-level operational endpoints.
	mux.Handle("GET /metrics", record(o.Registry.Handler().ServeHTTP))
	mux.HandleFunc("GET /healthz", record(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.HandleFunc("GET /readyz", record(func(w http.ResponseWriter, r *http.Request) {
		// Liveness stays 200 through a drain (the process is healthy);
		// readiness flips to 503 so load balancers stop routing here.
		if !m.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))

	// Not wrapped in record: requests no route serves keep the constant
	// "unmatched" label.
	mux.HandleFunc(catchAll, func(w http.ResponseWriter, r *http.Request) { handleUnrouted(mux, w, r) })

	var h http.Handler = mux
	if m.tenants != nil {
		// Auth sits between instrument (request ID, final log line) and the
		// mux: every API route requires a key, the probe endpoints stay
		// open (see authExempt).
		h = withTenantAuth(h, m)
	}
	return instrument(h, m)
}

// catchAll is the mux pattern every request matches when no route does.
const catchAll = "/"

// handleUnrouted answers a request no route serves with the error
// envelope instead of net/http's plain-text body: 405 plus Allow when the
// path exists under other methods, 404 otherwise. A path that would be
// routed with a /v1 prefix — the unversioned spelling retired with the
// /sessions aliases — is told so.
func handleUnrouted(mux *http.ServeMux, w http.ResponseWriter, r *http.Request) {
	methodsFor := func(path string) []string {
		var methods []string
		u := *r.URL
		u.Path = path
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPatch, http.MethodDelete} {
			if _, pattern := mux.Handler(&http.Request{Method: method, URL: &u, Host: r.Host}); pattern != catchAll {
				methods = append(methods, method)
			}
		}
		return methods
	}
	status, detail := http.StatusNotFound, ErrorDetail{
		Code:    CodeNotFound,
		Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path),
	}
	if allow := methodsFor(r.URL.Path); len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
		status = http.StatusMethodNotAllowed
		detail.Code = CodeMethodNotAllowed
		detail.Message = fmt.Sprintf("%s is not allowed on %s", r.Method, r.URL.Path)
	} else if successor := "/v1" + r.URL.Path; len(methodsFor(successor)) > 0 {
		detail.Message += fmt.Sprintf("; the API is served under /v1: use %s", successor)
	}
	detail.Shard = w.Header().Get(ShardHeader)
	writeJSONStatus(w, status, errorResponse{Error: detail})
}

// scenarioInfo is one entry of GET /v1/scenarios.
type scenarioInfo struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	Workload    string         `json:"workload"`
	DefaultN    int            `json:"default_n"`
	Config      *simcfg.Config `json:"config,omitempty"`
}

// handleScenarios lists the scenario packs submittable by name.
func handleScenarios(w http.ResponseWriter) {
	packs := simcfg.Packs()
	out := make([]scenarioInfo, len(packs))
	for i, p := range packs {
		out[i] = scenarioInfo{
			Name:        p.Name,
			Description: p.Description,
			Workload:    p.Workload,
			DefaultN:    p.DefaultN,
			Config:      p.Config,
		}
	}
	writeJSON(w, http.StatusOK, map[string][]scenarioInfo{"scenarios": out})
}

// routeHolder carries the matched route pattern — and, in multi-tenant
// mode, the authenticated tenant — out of the inner handlers for the
// instrumentation middleware.
type routeHolder struct {
	pattern string
	tenant  string
}

type routeCtxKey int

const routeKey routeCtxKey = iota

// instrument is the outermost middleware: it assigns the request ID
// (honouring an incoming X-Request-ID), echoes it on the response, and on
// completion feeds the HTTP metrics, the structured request log line and
// the request span.
func instrument(next http.Handler, m *Manager) http.Handler {
	o := m.Config().Obs
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		holder := &routeHolder{}
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = context.WithValue(ctx, routeKey, holder)
		if d, err := time.ParseDuration(r.Header.Get(DeadlineHeader)); err == nil && d > 0 {
			// The caller declared its remaining budget: clamp the request
			// context so handlers abandon work (step loops, job waits) the
			// caller will never see the result of. Malformed values only
			// lose the optimization, never fail the request.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		w.Header().Set("X-Request-ID", reqID)
		if shard := m.Config().ShardID; shard != "" {
			w.Header().Set(ShardHeader, shard)
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		route := holder.pattern
		if route == "" {
			// The mux rejected the request (404/405) before any handler
			// ran; a constant label keeps cardinality bounded.
			route = "unmatched"
		}
		m.ins.observeRequest(route, sw.status, elapsed.Seconds())
		if holder.tenant != "" {
			m.ins.tenantRequests.With(holder.tenant).Inc()
		}
		kv := []any{
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", sw.status, "duration_ms", elapsed.Seconds() * 1e3,
		}
		if holder.tenant != "" {
			kv = append(kv, "tenant", holder.tenant)
		}
		o.Logger.Log(ctx, "http request", kv...)
		span := map[string]string{
			"method": r.Method,
			"path":   r.URL.Path,
			"status": strconv.Itoa(sw.status),
		}
		if holder.tenant != "" {
			span["tenant"] = holder.tenant
		}
		o.Tracer.Record(ctx, "http "+route, start, elapsed, span)
	})
}

// handleCreate serves POST /v1/sessions. A JSON body carries
// CreateRequest; a binary body with the snapshot content type resumes an
// uploaded checkpoint, with the physics config passed as the `config`
// query parameter.
func handleCreate(m *Manager, w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	ct, _, _ = strings.Cut(ct, ";")
	ct = strings.TrimSpace(ct)

	var info Info
	var err error
	switch ct {
	case snapshotContentType, "application/octet-stream":
		req, qerr := createRequestFromQuery(r)
		if qerr != nil {
			writeError(w, qerr)
			return
		}
		req.ID = r.Header.Get(IDHeader)
		req.tenant = TenantFrom(r.Context())
		// Cap the upload at the exact encoded size of MaxBodies bodies;
		// anything larger necessarily declares a body count the manager
		// rejects anyway.
		limit := snapshot.EncodedSize(m.Config().MaxBodies)
		info, err = m.CreateFromSnapshot(r.Context(), http.MaxBytesReader(w, r.Body, limit), req)
	default:
		var req CreateRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateJSON))
		dec.DisallowUnknownFields()
		if derr := dec.Decode(&req); derr != nil {
			writeError(w, bodyError(ErrBadRequest, derr))
			return
		}
		if dec.More() {
			writeError(w, fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest))
			return
		}
		if id := r.Header.Get(IDHeader); id != "" {
			req.ID = id
		}
		req.tenant = TenantFrom(r.Context())
		info, err = m.Create(r.Context(), req)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

// handleList serves GET /v1/sessions with ?limit=&cursor= pagination.
func handleList(m *Manager, w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, err)
		return
	}
	infos, next, err := m.ListPage(limit, r.URL.Query().Get("cursor"))
	if err != nil {
		writeError(w, err)
		return
	}
	if infos == nil {
		infos = []Info{}
	}
	writeJSON(w, http.StatusOK, listResponse{Sessions: infos, NextCursor: next})
}

// retiredFields are the flat physics fields that sat beside `workload` in
// create bodies, job specs and snapshot-upload query strings before the
// `config` object replaced them. A request still spelling one is answered
// with invalid_config naming the successor rather than a generic
// unknown-field 400 (JSON) or a silently ignored parameter (query).
var retiredFields = []string{"algorithm", "dt", "theta", "eps", "g", "sequential", "rebuild_every"}

// retiredError is the invalid_config answer to retired field name, nil for
// any other name.
func retiredError(name string) error {
	if !slices.Contains(retiredFields, name) {
		return nil
	}
	successor := "config." + name
	if name == "rebuild_every" {
		successor = "config.tree_reuse.rebuild_every"
	}
	return fmt.Errorf("%w: the flat field %q was retired: use %s", ErrInvalidConfig, name, successor)
}

// bodyError wraps a JSON body decode failure with the caller's bad-request
// sentinel, unless the failure is DisallowUnknownFields tripping on a
// retired flat field. encoding/json reports an unknown field only as text.
func bodyError(badRequest, err error) error {
	if quoted, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		if name, uerr := strconv.Unquote(quoted); uerr == nil {
			if rerr := retiredError(name); rerr != nil {
				return rerr
			}
		}
	}
	return fmt.Errorf("%w: body: %v", badRequest, err)
}

// createRequestFromQuery decodes a snapshot upload's simulation parameters
// from the `config` query parameter (the simcfg.Config object,
// JSON-encoded).
func createRequestFromQuery(r *http.Request) (CreateRequest, error) {
	q := r.URL.Query()
	var req CreateRequest
	for _, name := range retiredFields {
		if q.Has(name) {
			return req, retiredError(name)
		}
	}
	if v := q.Get("config"); v != "" {
		dec := json.NewDecoder(strings.NewReader(v))
		dec.DisallowUnknownFields()
		var cfg simcfg.Config
		if derr := dec.Decode(&cfg); derr != nil {
			return req, fmt.Errorf("%w: query config: %v", ErrInvalidConfig, derr)
		}
		req.Config = &cfg
	}
	return req, nil
}

// stepRequest is the JSON body of POST /v1/sessions/{id}/step.
type stepRequest struct {
	Steps int `json:"steps"`
}

func handleStep(m *Manager, w http.ResponseWriter, r *http.Request) {
	var req stepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return
	}
	res, err := m.Step(r.Context(), r.PathValue("id"), req.Steps)
	if err != nil && !res.Interrupted {
		writeError(w, err)
		return
	}
	if err != nil {
		// Partial progress: the error envelope carries the interruption
		// cause and the partial result so clients can resume.
		res.Error = err.Error()
		status, detail := errorDetailOf(err)
		writeJSONStatus(w, status, errorResponse{Error: detail, Result: &res})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// Watch heartbeats: when no event has been written for a full interval
// (slow steps, a coarse ?every=), the stream carries a ": heartbeat"
// comment line so watchers can distinguish a stalled server from a slow
// one. NDJSON consumers must skip blank lines and lines starting with ':'
// (the SDK does). The heartbeat query parameter overrides the interval.
const (
	watchHeartbeatDefault = 10 * time.Second
	watchHeartbeatMin     = 50 * time.Millisecond
)

// errNoFlusher reports a watch request over a transport whose
// ResponseWriter chain exposes no http.Flusher: rather than streaming
// into a buffer that may never drain, the request fails up front with a
// 500 envelope.
var errNoFlusher = errors.New("serve: watch streaming unsupported: response writer exposes no http.Flusher")

// canFlush walks the ResponseWriter chain (via the ResponseController
// Unwrap protocol) looking for a real http.Flusher.
func canFlush(w http.ResponseWriter) bool {
	for {
		switch v := w.(type) {
		case http.Flusher:
			return true
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return false
		}
	}
}

func handleWatch(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	steps, err := queryInt(r, "steps", 100)
	if err != nil {
		writeError(w, err)
		return
	}
	every, err := queryInt(r, "every", 1)
	if err != nil {
		writeError(w, err)
		return
	}
	heartbeat := watchHeartbeatDefault
	if v := r.URL.Query().Get("heartbeat"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d <= 0 {
			writeError(w, fmt.Errorf("%w: query heartbeat=%q is not a positive duration", ErrBadRequest, v))
			return
		}
		heartbeat = max(d, watchHeartbeatMin)
	}
	if !canFlush(w) {
		// A watch without flushing would sit in buffers indefinitely while
		// the simulation burns its step budget; fail loudly instead.
		writeError(w, errNoFlusher)
		return
	}
	rc := http.NewResponseController(w)

	// wmu guards the response writer between the emit path and the
	// heartbeat goroutine.
	var wmu sync.Mutex
	wrote := false
	lastWrite := time.Now()
	enc := json.NewEncoder(w)
	emit := func(ev WatchEvent) error {
		wmu.Lock()
		defer wmu.Unlock()
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		lastWrite = time.Now()
		return nil
	}

	// Heartbeats start after the first event (the status line must stay
	// available for pre-stream errors) and stop before the handler
	// returns — writing from a goroutine after that would race the
	// server's response teardown.
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-r.Context().Done():
				return
			case <-t.C:
				wmu.Lock()
				if wrote && time.Since(lastWrite) >= heartbeat {
					if _, werr := io.WriteString(w, ": heartbeat\n"); werr == nil {
						rc.Flush()
						lastWrite = time.Now()
					}
				}
				wmu.Unlock()
			}
		}
	}()

	err = m.Watch(r.Context(), id, steps, every, emit)
	close(stopHB)
	hbWG.Wait()
	if err != nil {
		if !wrote {
			writeError(w, err)
			return
		}
		// Mid-stream failure: the status line is gone; append a terminal
		// error record so clients can distinguish truncation from
		// completion.
		_, detail := errorDetailOf(err)
		enc.Encode(errorResponse{Error: detail})
		rc.Flush()
	}
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: query %s=%q is not an integer", ErrBadRequest, key, v)
	}
	return n, nil
}

// errorDetailOf maps the manager's typed errors onto an HTTP status and
// the stable error envelope.
func errorDetailOf(err error) (int, ErrorDetail) {
	d := ErrorDetail{Message: err.Error()}
	switch {
	case errors.Is(err, ErrNotFound):
		d.Code = CodeSessionNotFound
		return http.StatusNotFound, d
	case errors.Is(err, ErrTooManySessions), errors.Is(err, ErrBusy):
		d.Code = CodeOverloaded
		return http.StatusTooManyRequests, d
	case errors.Is(err, ErrUnauthorized):
		d.Code = CodeUnauthorized
		return http.StatusUnauthorized, d
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, jobs.ErrQuotaExceeded):
		// Distinct from overloaded: the service has capacity, the tenant's
		// own quota is the limit. Retry-After is the tenant's refill/expiry
		// horizon (via the retryHint wrapper), not global load.
		d.Code = CodeQuotaExceeded
		return http.StatusTooManyRequests, d
	case errors.Is(err, ErrConflict):
		d.Code = CodeSessionBusy
		d.SessionState = StateRunning.String()
		return http.StatusConflict, d
	case errors.Is(err, ErrShutdown):
		d.Code = CodeShuttingDown
		return http.StatusServiceUnavailable, d
	case errors.Is(err, ErrSessionFailed):
		// The request was well-formed but the session is quarantined
		// (panic or numerical divergence): a semantic failure, not a
		// syntax one.
		d.Code = CodeSessionFailed
		d.SessionState = StateFailed.String()
		return http.StatusUnprocessableEntity, d
	case errors.Is(err, ErrInvalidSnapshot):
		d.Code = CodeInvalidSnapshot
		return http.StatusBadRequest, d
	case errors.Is(err, ErrInvalidConfig):
		// A physics-config field failed validation; the message names it.
		d.Code = CodeInvalidConfig
		return http.StatusBadRequest, d
	case errors.Is(err, ErrBadRequest):
		d.Code = CodeInvalidRequest
		return http.StatusBadRequest, d
	case errors.Is(err, jobs.ErrNotFound):
		d.Code = CodeJobNotFound
		return http.StatusNotFound, d
	case errors.Is(err, jobs.ErrQueueFull):
		d.Code = CodeOverloaded
		return http.StatusTooManyRequests, d
	case errors.Is(err, jobs.ErrNotReady):
		d.Code = CodeJobNotReady
		return http.StatusConflict, d
	case errors.Is(err, jobs.ErrNotQueued):
		d.Code = CodeJobNotQueued
		return http.StatusConflict, d
	case errors.Is(err, jobs.ErrInvalidConfig):
		d.Code = CodeInvalidConfig
		return http.StatusBadRequest, d
	case errors.Is(err, jobs.ErrBadRequest):
		d.Code = CodeInvalidRequest
		return http.StatusBadRequest, d
	case errors.Is(err, jobs.ErrShutdown):
		d.Code = CodeShuttingDown
		return http.StatusServiceUnavailable, d
	case errors.Is(err, context.DeadlineExceeded):
		// The request's propagated time budget ran out mid-request; work
		// was abandoned at the next checkpoint.
		d.Code = CodeDeadlineExceeded
		return http.StatusGatewayTimeout, d
	case errors.Is(err, context.Canceled):
		// The client went away mid-request.
		d.Code = CodeClientClosed
		return 499, d // client closed request (nginx convention)
	}
	d.Code = CodeInternal
	return http.StatusInternalServerError, d
}

// statusOf maps the manager's typed errors onto HTTP status codes.
func statusOf(err error) int {
	status, _ := errorDetailOf(err)
	return status
}

// writeError renders err as the JSON error envelope with its mapped
// status. 429 responses carry a Retry-After derived from the shedding
// layer's load estimate (errors wrapped with a RetryAfterSeconds hint —
// see backpressure.go and internal/jobs); absent a hint the header
// degrades to the minimum rather than disappearing.
func writeError(w http.ResponseWriter, err error) {
	status, detail := errorDetailOf(err)
	detail.Shard = w.Header().Get(ShardHeader)
	if status == http.StatusTooManyRequests {
		secs := retryAfterMin
		var h interface{ RetryAfterSeconds() int }
		if errors.As(err, &h) {
			secs = h.RetryAfterSeconds()
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSONStatus(w, status, errorResponse{Error: detail})
}

func writeJSON(w http.ResponseWriter, status int, v any) { writeJSONStatus(w, status, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// statusWriter records the response status for the instrumentation
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController so the
// watch stream's flushes reach the real connection. Deliberately no Flush
// method: implementing http.Flusher here would make every wrapped writer
// look flushable even when the transport is not, silently swallowing
// flushes — the bug handleWatch now guards against via canFlush.
func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }
