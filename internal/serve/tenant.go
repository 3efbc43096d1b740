package serve

// Multi-tenant identity and quotas (DESIGN.md §15): a static keyfile maps
// bearer API keys onto named tenants, an auth middleware stamps the tenant
// into the request context, and per-tenant quotas — live sessions, queued
// jobs, token-bucket request rate — are enforced at admission so one
// tenant's burst cannot destroy another's p99. With no tenants configured
// the service keeps its open single-tenant behavior: no auth, no quotas.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// TenantHeader names the authenticated tenant on every response of a
// multi-tenant deployment. The router reads it to label per-tenant metrics
// without holding the keyfile itself.
const TenantHeader = "X-NBody-Tenant"

// Tenant is one configured API tenant: an identity (Name), its bearer key,
// and its admission quotas. Zero-valued quotas are unlimited, so a keyfile
// can grant identity without constraining a tenant.
type Tenant struct {
	// Name identifies the tenant in logs, metrics labels, the
	// X-NBody-Tenant header and quota accounting. Required, unique.
	Name string `json:"name"`
	// Key is the bearer token presented as "Authorization: Bearer <key>".
	// Required, unique across tenants.
	Key string `json:"key"`
	// MaxSessions caps the tenant's live sessions (0 = unlimited; the
	// global MaxSessions cap still applies on top).
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxQueuedJobs caps the tenant's queued batch jobs (0 = unlimited;
	// the global job-queue bound still applies on top).
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
	// RatePerSec is the tenant's sustained request rate as a token-bucket
	// refill rate (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token-bucket depth (0 defaults to the larger of 1 and
	// RatePerSec rounded up, i.e. about one second of burst).
	Burst int `json:"burst,omitempty"`
}

// burst is the effective bucket depth.
func (t Tenant) burst() float64 {
	if t.Burst > 0 {
		return float64(t.Burst)
	}
	return math.Max(1, math.Ceil(t.RatePerSec))
}

// LoadTenants reads a tenant keyfile: a JSON array of Tenant objects.
// Unknown fields are rejected so a typo'd quota name fails boot instead of
// silently granting unlimited.
func LoadTenants(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: tenants keyfile: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var ts []Tenant
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("serve: tenants keyfile %s: %w", path, err)
	}
	if err := validateTenants(ts); err != nil {
		return nil, fmt.Errorf("serve: tenants keyfile %s: %w", path, err)
	}
	return ts, nil
}

// validateTenants checks a tenant list for boot: names and keys present and
// unique, quotas non-negative. Tenant names become metrics label values and
// header values, so they are restricted to a conservative charset.
func validateTenants(ts []Tenant) error {
	names := make(map[string]bool, len(ts))
	keys := make(map[string]bool, len(ts))
	for i, t := range ts {
		if t.Name == "" {
			return fmt.Errorf("serve: tenant %d: name is required", i)
		}
		for _, r := range t.Name {
			ok := r == '-' || r == '_' || r == '.' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				return fmt.Errorf("serve: tenant %q: name may contain only letters, digits, '-', '_', '.'", t.Name)
			}
		}
		if t.Key == "" {
			return fmt.Errorf("serve: tenant %q: key is required", t.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("serve: tenant %q: duplicate name", t.Name)
		}
		if keys[t.Key] {
			return fmt.Errorf("serve: tenant %q: key already assigned to another tenant", t.Name)
		}
		names[t.Name], keys[t.Key] = true, true
		if t.MaxSessions < 0 || t.MaxQueuedJobs < 0 || t.Burst < 0 {
			return fmt.Errorf("serve: tenant %q: quotas must be >= 0", t.Name)
		}
		if t.RatePerSec < 0 || math.IsNaN(t.RatePerSec) || math.IsInf(t.RatePerSec, 0) {
			return fmt.Errorf("serve: tenant %q: rate_per_sec must be finite and >= 0", t.Name)
		}
	}
	return nil
}

// tenantCtxKey keys the authenticated tenant name in a request context.
type tenantCtxKey struct{}

// WithTenant returns ctx carrying the authenticated tenant name.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, name)
}

// TenantFrom returns the authenticated tenant name carried by ctx ("" in
// single-tenant mode or before authentication).
func TenantFrom(ctx context.Context) string {
	name, _ := ctx.Value(tenantCtxKey{}).(string)
	return name
}

// tenantState is one tenant's runtime accounting: the static config plus
// the request-rate token bucket.
type tenantState struct {
	Tenant

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// allow consumes one request token. When the bucket is empty it reports
// how many seconds until the tenant's own refill makes a token available —
// the per-tenant Retry-After, attributed to the tenant's quota rather than
// global load.
func (t *tenantState) allow(now time.Time) (ok bool, retrySec int) {
	if t.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.last.IsZero() {
		t.tokens = t.burst()
	} else {
		t.tokens = math.Min(t.burst(), t.tokens+now.Sub(t.last).Seconds()*t.RatePerSec)
	}
	t.last = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	return false, clampRetrySeconds((1 - t.tokens) / t.RatePerSec)
}

// tenantSet indexes the configured tenants by key (auth) and name (quota
// lookups). Nil means single-tenant mode.
type tenantSet struct {
	byKey  map[string]*tenantState
	byName map[string]*tenantState
}

// newTenantSet builds the runtime index (nil for an empty config).
func newTenantSet(ts []Tenant) *tenantSet {
	if len(ts) == 0 {
		return nil
	}
	set := &tenantSet{
		byKey:  make(map[string]*tenantState, len(ts)),
		byName: make(map[string]*tenantState, len(ts)),
	}
	for _, t := range ts {
		st := &tenantState{Tenant: t}
		set.byKey[t.Key] = st
		set.byName[t.Name] = st
	}
	return set
}

// names returns the tenant names (metrics label pre-touch order is the
// caller's concern).
func (s *tenantSet) names() []string {
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	return out
}

// lookup returns a tenant's runtime state by name (nil when unknown or in
// single-tenant mode).
func (s *tenantSet) lookup(name string) *tenantState {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// authenticate resolves the request's bearer key to a tenant.
func (s *tenantSet) authenticate(r *http.Request) (*tenantState, error) {
	auth := r.Header.Get("Authorization")
	if auth == "" {
		return nil, fmt.Errorf("%w: missing Authorization header", ErrUnauthorized)
	}
	scheme, key, ok := strings.Cut(auth, " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") || key == "" {
		return nil, fmt.Errorf("%w: want \"Authorization: Bearer <key>\"", ErrUnauthorized)
	}
	t, found := s.byKey[strings.TrimSpace(key)]
	if !found {
		// Deliberately the same message for unknown key and malformed key
		// material: error detail must not become a key oracle.
		return nil, fmt.Errorf("%w: unknown API key", ErrUnauthorized)
	}
	return t, nil
}

// authExempt reports paths that stay open in multi-tenant mode: the
// orchestrator probes and the Prometheus scrape, none of which expose
// tenant data or admit work.
func authExempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return false
}

// withTenantAuth wraps next with bearer-key authentication and the
// per-tenant request-rate limit. It runs inside instrument (which owns the
// request ID and the final log line) and records the resolved tenant in the
// route holder so instrument can label metrics and logs with it.
func withTenantAuth(next http.Handler, m *Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if authExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		t, err := m.tenants.authenticate(r)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="nbody"`)
			m.ins.tenantRejected.With("unknown", "auth").Inc()
			writeError(w, err)
			return
		}
		if ok, retry := t.allow(time.Now()); !ok {
			m.ins.tenantRejected.With(t.Name, "rate").Inc()
			w.Header().Set(TenantHeader, t.Name)
			writeError(w, retryHint{
				fmt.Errorf("%w: tenant %s over its request rate (%.3g/s)", ErrQuotaExceeded, t.Name, t.RatePerSec),
				retry,
			})
			return
		}
		if h, ok := r.Context().Value(routeKey).(*routeHolder); ok {
			h.tenant = t.Name
		}
		w.Header().Set(TenantHeader, t.Name)
		next.ServeHTTP(w, r.WithContext(WithTenant(r.Context(), t.Name)))
	})
}

// tenantSessionsLocked counts a tenant's live sessions. m.mu must be held.
func (m *Manager) tenantSessionsLocked(tenant string) int {
	live := 0
	for _, s := range m.sessions {
		if s.tenant == tenant {
			live++
		}
	}
	return live
}

// TenantStats is one tenant's slice of the /v1/metrics snapshot.
type TenantStats struct {
	Sessions         int   `json:"sessions"`
	MaxSessions      int   `json:"max_sessions,omitempty"`
	RejectedRate     int64 `json:"rejected_rate_total"`
	RejectedSessions int64 `json:"rejected_sessions_total"`
}

// tenantMetrics snapshots per-tenant accounting for /v1/metrics.
func (m *Manager) tenantMetrics() map[string]TenantStats {
	if m.tenants == nil {
		return nil
	}
	bySession := make(map[string]int)
	m.mu.Lock()
	for _, s := range m.sessions {
		if s.tenant != "" {
			bySession[s.tenant]++
		}
	}
	m.mu.Unlock()
	out := make(map[string]TenantStats, len(m.tenants.byName))
	for name, t := range m.tenants.byName {
		out[name] = TenantStats{
			Sessions:         bySession[name],
			MaxSessions:      t.MaxSessions,
			RejectedRate:     count(m.ins.tenantRejected.With(name, "rate")),
			RejectedSessions: count(m.ins.tenantRejected.With(name, "session")),
		}
	}
	return out
}
