// Package router is the horizontal-sharding tier: a stateless proxy that
// partitions sessions and batch jobs across N shared-nothing nbody-serve
// replicas ("shards") by consistent hashing on the session/job ID.
//
// The design keeps the shards ignorant of each other — the split of one
// big workload across independent workers, in the spirit of Becciani et
// al.'s work- and data-sharing tree code. The router owns three concerns:
//
//   - Placement. Every created session or job gets a router-minted ID
//     ("rs-<hex>"/"rj-<hex>"), and the ring (ring.go) maps that ID to its
//     owning shard for the resource's whole lifetime. The ID travels to
//     the shard in the X-NBody-ID header, so the key the shard stores the
//     resource under is exactly the key the ring hashes — any router
//     instance, now or after a restart, routes the ID the same way.
//
//   - Health. A probe goroutine per shard polls GET /readyz; consecutive
//     failures past a threshold mark the shard down, consecutive passes
//     bring it back (a two-threshold state machine, so one blip neither
//     kills nor resurrects a shard). Down shards take no placements and
//     no writes; idempotent GETs retry on the other shards in ring order,
//     which also serves as discovery for resources that live off their
//     ring-owner shard (handed-off jobs, shard-minted backing sessions).
//
//   - Drain. Marking a shard draining stops new placements while existing
//     resources stay served. Queued-but-unstarted jobs are handed to the
//     next alive shard on the ring under the same job ID (cancel on the
//     origin first, so the job can never run twice), which keeps every
//     job record alive across the drain.
//
// See DESIGN.md §11 for the protocol details and failure matrix.
package router

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nbody/client"
	"nbody/internal/obs"
)

// ShardConfig names one nbody-serve replica and its base URL.
type ShardConfig struct {
	Name string
	URL  string
}

// Config parameterizes a Router.
type Config struct {
	// Shards is the replica set. Required, at least one; names must be
	// distinct and non-empty.
	Shards []ShardConfig
	// VirtualNodes is the ring's per-shard virtual-node count. Default
	// DefaultVirtualNodes.
	VirtualNodes int
	// ProbeInterval is the health-probe period. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip. Default 2s.
	ProbeTimeout time.Duration
	// FailAfter consecutive probe failures mark a shard down. Default 3.
	FailAfter int
	// PassAfter consecutive probe successes mark it up again. Default 2.
	PassAfter int
	// CacheSize bounds the ID→shard location cache (learned placements,
	// GET discoveries and handoffs). Default 8192.
	CacheSize int
	// ProxyTimeout bounds one proxied exchange end to end for
	// non-streaming requests, and is the ceiling any client-supplied
	// X-NBody-Deadline is clamped to on those routes. Streaming exchanges
	// (watch, snapshot/trace downloads) are exempt from the default but
	// still honor an explicit client deadline, and their response
	// headers must arrive within ProxyTimeout regardless. Default 15s;
	// negative disables the default budget entirely.
	ProxyTimeout time.Duration
	// HedgeAfter, when > 0, hedges idempotent GETs: if the current shard
	// has not answered after HedgeAfter, the read is also issued to the
	// next candidate on the ring and the first useful response wins.
	// Writes are never hedged. Default 0 (disabled).
	HedgeAfter time.Duration
	// BreakerFailures consecutive failed requests (transport errors,
	// gateway-class statuses, over-latency responses) open a shard's
	// circuit breaker. Default 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker sheds before admitting
	// a trial request (half-open). Default 5s.
	BreakerCooldown time.Duration
	// BreakerLatency, when > 0, counts any response slower than it as a
	// breaker failure sample even when the status was fine. Default 0
	// (latency does not trip the breaker).
	BreakerLatency time.Duration
	// Obs wires the router into the observability layer. Nil defaults to
	// obs.Nop().
	Obs *obs.Observer
}

// withDefaults validates cfg and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if len(c.Shards) == 0 {
		return c, errors.New("router: at least one shard is required")
	}
	for _, s := range c.Shards {
		if s.Name == "" || s.URL == "" {
			return c, fmt.Errorf("router: shard needs both name and URL (got %q, %q)", s.Name, s.URL)
		}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.PassAfter <= 0 {
		c.PassAfter = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 8192
	}
	if c.ProxyTimeout == 0 {
		c.ProxyTimeout = 15 * time.Second
	}
	if c.ProxyTimeout < 0 {
		c.ProxyTimeout = 0 // explicit opt-out: no default budget
	}
	if c.HedgeAfter < 0 {
		c.HedgeAfter = 0
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerLatency < 0 {
		c.BreakerLatency = 0
	}
	if c.Obs == nil {
		c.Obs = obs.Nop()
	}
	if c.Obs.Registry == nil {
		return c, errors.New("router: Obs.Registry must not be nil")
	}
	return c, nil
}

// shard is one replica's runtime state. The health fields are only
// written by the shard's probe goroutine and the drain handler; readers
// go through the atomics.
type shard struct {
	name string
	url  string
	c    *client.Client // retries disabled: the router is its own retry policy
	br   *breaker       // passive failure tracking between probes

	up       atomic.Bool
	draining atomic.Bool
}

// Router proxies /v1 traffic onto the shard set. Construct with New,
// serve its Handler, and Close it on shutdown.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard

	cache *locationCache

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// drainMu serializes drain/undrain transitions (and their handoffs)
	// per router instance.
	drainMu sync.Mutex

	ins *instruments
	log *obs.Logger
}

// New validates cfg, builds the ring, starts the health probes and
// returns a ready Router.
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		names[i] = s.Name
	}
	ring, err := NewRing(cfg.VirtualNodes, names)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		shards: make(map[string]*shard, len(cfg.Shards)),
		cache:  newLocationCache(cfg.CacheSize),
		ctx:    ctx,
		cancel: cancel,
		ins:    newInstruments(cfg.Obs.Registry),
		log:    cfg.Obs.Logger,
	}
	// One transport for all shard clients, with hard floors under the
	// per-request context: a hung shard can wedge neither the dial nor
	// the wait for response headers. ResponseHeaderTimeout (not an
	// overall client timeout) is what lets watch/snapshot stream bodies
	// flow for longer than ProxyTimeout once headers have arrived.
	dialTimeout := 5 * time.Second
	if cfg.ProxyTimeout > 0 && cfg.ProxyTimeout < dialTimeout {
		dialTimeout = cfg.ProxyTimeout
	}
	httpc := &http.Client{Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: cfg.ProxyTimeout, // 0 = no header timeout
	}}
	for _, sc := range cfg.Shards {
		c, err := client.New(sc.URL, client.WithRetries(0, 0, 0), client.WithHTTPClient(httpc))
		if err != nil {
			cancel()
			return nil, fmt.Errorf("router: shard %s: %w", sc.Name, err)
		}
		s := &shard{name: sc.Name, url: sc.URL, c: c, br: newBreaker(breakerConfig{
			failures: cfg.BreakerFailures,
			cooldown: cfg.BreakerCooldown,
			latency:  cfg.BreakerLatency,
		})}
		name := sc.Name
		s.br.onOpen = func() {
			rt.ins.breakerOpens.With(name).Inc()
			rt.log.Log(rt.ctx, "breaker opened", "shard", name)
		}
		// Start optimistically up: the first probe runs immediately and
		// demotes a genuinely dead shard within FailAfter probes, while a
		// healthy fleet takes traffic from the first request.
		s.up.Store(true)
		rt.shards[sc.Name] = s
	}
	rt.ins.install(cfg.Obs.Registry, rt)
	for _, s := range rt.shards {
		rt.wg.Add(1)
		go rt.probeLoop(s)
	}
	return rt, nil
}

// Close stops the health probes.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

// probeLoop is one shard's health state machine: an immediate first probe,
// then one per ProbeInterval. FailAfter consecutive failures take the
// shard down; PassAfter consecutive successes bring it back.
func (rt *Router) probeLoop(s *shard) {
	defer rt.wg.Done()
	fails, passes := 0, 0
	probe := func() {
		ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.ProbeTimeout)
		err := s.c.Ready(ctx)
		cancel()
		if rt.ctx.Err() != nil {
			return
		}
		if err != nil {
			rt.ins.probeFails.With(s.name).Inc()
			fails++
			passes = 0
			if fails >= rt.cfg.FailAfter && s.up.CompareAndSwap(true, false) {
				rt.log.Log(rt.ctx, "shard down", "shard", s.name, "consecutive_failures", fails, "error", err.Error())
			}
			return
		}
		passes++
		fails = 0
		if passes >= rt.cfg.PassAfter && s.up.CompareAndSwap(false, true) {
			rt.log.Log(rt.ctx, "shard up", "shard", s.name, "consecutive_passes", passes)
		}
	}
	probe()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			probe()
		}
	}
}

// mintID draws a fresh random ID with the given prefix ("rs" for
// sessions, "rj" for jobs): 8 random bytes is far past birthday-collision
// range for any plausible session count, and a random key is exactly what
// the ring wants for an even split.
func mintID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform is broken; fall back to
		// a time-derived ID rather than refusing all placements.
		return fmt.Sprintf("%s-t%d", prefix, time.Now().UnixNano())
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// routable reports whether name may take traffic right now: probe-healthy
// AND not shedding behind an open circuit breaker. A breaker past its
// cooldown no longer blocks here — the next send through forward()
// becomes the half-open trial.
func (rt *Router) routable(name string) bool {
	s := rt.shards[name]
	return s != nil && s.up.Load() && !s.br.blocked()
}

// placeable reports whether name may receive new placements.
func (rt *Router) placeable(name string) bool {
	s := rt.shards[name]
	return s != nil && s.up.Load() && !s.draining.Load() && !s.br.blocked()
}

// readCandidates returns the shards to try for an idempotent GET on id,
// most-likely-owner first: the cached location, then the ring walk.
// Only routable shards are returned (draining ones still serve reads;
// breaker-open ones behave exactly like probe-down ones).
func (rt *Router) readCandidates(ns, id string) []string {
	seq := rt.ring.Sequence(id)
	out := make([]string, 0, len(seq)+1)
	if cached, ok := rt.cache.get(ns, id); ok && rt.routable(cached) {
		out = append(out, cached)
	}
	for _, name := range seq {
		if rt.routable(name) && (len(out) == 0 || name != out[0]) {
			out = append(out, name)
		}
	}
	return out
}

// writeTarget returns the one shard a non-idempotent request on id may go
// to: the cached location when known, the ring owner otherwise. ok is
// false when that shard is down or breaker-blocked — the caller answers
// shard_unavailable rather than risking the write landing elsewhere.
func (rt *Router) writeTarget(ns, id string) (string, bool) {
	name, cached := rt.cache.get(ns, id)
	if !cached {
		name = rt.ring.Owner(id)
	}
	return name, rt.routable(name)
}

// relocateCandidates returns the routable shards other than origin in
// ring order from id: the shards a write may move to after the origin
// answered 404 (a 404 proves the origin did no work, so relocation
// cannot double-apply anything).
func (rt *Router) relocateCandidates(id, origin string) []string {
	var out []string
	for _, name := range rt.ring.Sequence(id) {
		if name != origin && rt.routable(name) {
			out = append(out, name)
		}
	}
	return out
}

// ShardStatus is one shard's entry in the admin listing.
type ShardStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining"`
	// Breaker is the circuit breaker state: "closed", "open" or
	// "half_open". An "open" entry past its cooldown reads as open until
	// the next request becomes the trial.
	Breaker string `json:"breaker"`
}

// Status reports every shard's health, sorted by name.
func (rt *Router) Status() []ShardStatus {
	names := rt.ring.Shards()
	out := make([]ShardStatus, len(names))
	for i, name := range names {
		s := rt.shards[name]
		out[i] = ShardStatus{
			Name: name, URL: s.url,
			Up: s.up.Load(), Draining: s.draining.Load(),
			Breaker: s.br.state().String(),
		}
	}
	return out
}

// DrainResult summarizes one drain call.
type DrainResult struct {
	Shard    string `json:"shard"`
	Draining bool   `json:"draining"`
	// HandedOff counts queued jobs moved to another shard; Skipped counts
	// queued jobs left in place (already started, or no successor
	// available); Failed counts jobs whose handoff errored (the record
	// stays on the draining shard).
	HandedOff int `json:"handed_off"`
	Skipped   int `json:"skipped"`
	Failed    int `json:"failed"`
}

// Drain marks a shard draining (no new placements; existing sessions and
// jobs keep being served) and hands its queued-but-unstarted jobs to
// their successor shards on the ring. Draining an already-draining shard
// re-runs the handoff, picking up jobs that were skipped.
func (rt *Router) Drain(ctx context.Context, name string) (DrainResult, error) {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	s := rt.shards[name]
	if s == nil {
		return DrainResult{}, fmt.Errorf("%w: %q", errUnknownShard, name)
	}
	s.draining.Store(true)
	res := DrainResult{Shard: name, Draining: true}
	rt.log.Log(ctx, "shard draining", "shard", name)
	if !s.up.Load() {
		// A down shard cannot answer the job listing; its queue hands off
		// when it comes back and is drained again, or never.
		return res, nil
	}
	jobs, err := s.c.Jobs(ctx)
	if err != nil {
		return res, fmt.Errorf("router: listing jobs on draining shard %s: %w", name, err)
	}
	for _, j := range jobs {
		if j.State != client.JobQueued {
			continue
		}
		switch rt.handoff(ctx, s, j) {
		case handoffOK:
			res.HandedOff++
		case handoffSkipped:
			res.Skipped++
		case handoffFailed:
			res.Failed++
		}
	}
	return res, nil
}

// Undrain clears a shard's draining mark, making it placeable again once
// its probes pass.
func (rt *Router) Undrain(ctx context.Context, name string) error {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	s := rt.shards[name]
	if s == nil {
		return fmt.Errorf("%w: %q", errUnknownShard, name)
	}
	s.draining.Store(false)
	rt.log.Log(ctx, "shard undrained", "shard", name)
	return nil
}

var errUnknownShard = errors.New("router: unknown shard")

type handoffResult int

const (
	handoffOK handoffResult = iota
	handoffSkipped
	handoffFailed
)

// handoff moves one queued job off a draining shard. The order is the
// safety argument:
//
//  1. Cancel on the origin. If the job started in the meantime (the
//     listing races the origin's workers), the cancel reports a
//     non-queued state and the handoff is skipped — the job runs where
//     its progress is.
//  2. Submit to the successor under the SAME job ID. The ID is the
//     routing key, so the record stays reachable without rewriting any
//     client-held reference.
//  3. Delete the cancelled record on the origin (a second DELETE removes
//     a terminal record), leaving exactly one copy of the job.
//
// Between 1 and 2 the job exists only as a cancelled origin record, so a
// crash mid-handoff leaves a visible, resubmittable record rather than a
// duplicate execution. If the successor submit fails, the origin record
// is left in place (cancelled) and the handoff counts as failed.
func (rt *Router) handoff(ctx context.Context, origin *shard, j client.Job) handoffResult {
	succ := ""
	for _, name := range rt.ring.Sequence(j.ID) {
		if name != origin.name && rt.placeable(name) {
			succ = name
			break
		}
	}
	if succ == "" {
		rt.ins.handoffs.With("skipped").Inc()
		rt.log.Log(ctx, "job handoff skipped: no successor", "job", j.ID, "shard", origin.name)
		return handoffSkipped
	}
	if j.StepsDone > 0 {
		// The job has checkpointed progress in a session on the origin
		// shard; moving it would restart from zero. It stays and finishes
		// where its state is.
		rt.ins.handoffs.With("skipped").Inc()
		return handoffSkipped
	}
	cancelled, deleted, err := origin.c.CancelJob(ctx, j.ID)
	if err != nil || deleted || cancelled.State != client.JobCancelled || cancelled.StepsDone > 0 {
		// Raced the origin's workers (it started or finished) or the
		// cancel failed outright: leave it alone.
		rt.ins.handoffs.With("skipped").Inc()
		rt.log.Log(ctx, "job handoff skipped", "job", j.ID, "shard", origin.name,
			"state", cancelled.State, "error", errString(err))
		return handoffSkipped
	}
	if _, err := rt.shards[succ].c.SubmitJob(ctx, j.Spec()); err != nil {
		rt.ins.handoffs.With("failed").Inc()
		rt.log.Log(ctx, "job handoff failed: successor rejected submit", "job", j.ID,
			"from", origin.name, "to", succ, "error", err.Error())
		return handoffFailed
	}
	rt.cache.put("j", j.ID, succ)
	if _, _, err := origin.c.CancelJob(ctx, j.ID); err != nil {
		// The successor owns the job. A leftover cancelled record on the
		// origin cannot shadow it: the cache points at the successor, and
		// even after the cache forgets (restart, eviction) reads treat a
		// cancelled record as a soft miss and prefer the live copy. Still
		// log it for the operator — it is garbage until deleted.
		rt.log.Log(ctx, "job handoff: origin record cleanup failed", "job", j.ID,
			"shard", origin.name, "error", err.Error())
	}
	rt.ins.handoffs.With("ok").Inc()
	rt.log.Log(ctx, "job handed off", "job", j.ID, "from", origin.name, "to", succ)
	return handoffOK
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// locationCache is the bounded ID→shard map: where an ID actually lives
// when that differs from (or merely confirms) the ring owner. Entries are
// learned at placement, on GET discovery and on handoff, and evicted FIFO
// — a miss is never wrong, it just costs a discovery walk.
type locationCache struct {
	mu   sync.Mutex
	max  int
	m    map[string]string
	fifo []string
}

func newLocationCache(max int) *locationCache {
	return &locationCache{max: max, m: make(map[string]string, max)}
}

// key namespaces session and job IDs so they cannot collide.
func (c *locationCache) key(ns, id string) string { return ns + "/" + id }

func (c *locationCache) get(ns, id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[c.key(ns, id)]
	return v, ok
}

func (c *locationCache) put(ns, id, shard string) {
	k := c.key(ns, id)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[k]; !exists {
		for len(c.fifo) >= c.max {
			oldest := c.fifo[0]
			c.fifo = c.fifo[1:]
			delete(c.m, oldest)
		}
		c.fifo = append(c.fifo, k)
	}
	c.m[k] = shard
}

func (c *locationCache) drop(ns, id string) {
	k := c.key(ns, id)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		return
	}
	delete(c.m, k)
	// Drop the fifo slot too (linear, but drops only happen when a
	// resource is confirmed gone). A leftover slot would shrink the
	// effective capacity, and once a re-put of the same key appended a
	// second slot, evicting the stale one would delete the live entry
	// while the cache is under capacity.
	for i, f := range c.fifo {
		if f == k {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
}
