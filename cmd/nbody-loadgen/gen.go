package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"nbody/client"
)

// Traffic class names.
const (
	classStep  = "step"
	classJob   = "job"
	classWatch = "watch"
)

// genConfig parameterizes one load-generation run.
type genConfig struct {
	RPS      float64       // target open-loop arrival rate
	Duration time.Duration // how long to generate arrivals
	Workers  int           // max in-flight requests; arrivals beyond it are dropped
	Mix      map[string]int
	Sessions int // session pool size for step/watch traffic

	N         int
	DT        float64
	Pipeline  bool // pool sessions request pipelined (phase-task) stepping
	StepBatch int  // steps per step request

	WatchSteps int
	WatchEvery int

	JobSteps int
	JobClass string

	// Tenants are the API identities to drive traffic as (empty =
	// single-tenant, no auth). Pool sessions spread round-robin across
	// them; each job arrival picks one uniformly at random.
	Tenants []tenantKey
	// Scenarios is a weighted scenario-pack mix; when non-empty, pool
	// sessions and jobs are created by pack name (with N/Seed overrides)
	// instead of the flat plummer spec.
	Scenarios map[string]int

	Seed uint64
}

// tenantKey is one tenant identity: the name for report attribution and
// the bearer key the SDK authenticates with.
type tenantKey struct {
	Name string
	Key  string
}

// tenantClient pairs a tenant name with its authenticated SDK client. The
// zero name is the anonymous single-tenant client.
type tenantClient struct {
	name string
	c    *client.Client
}

// poolSession is one pooled session and the index of the tenant client
// that owns it — step/watch requests go through the owner so per-tenant
// quotas and rate limits land on the right identity.
type poolSession struct {
	id    string
	owner int
}

// tenantCounters accumulates one tenant's completed-operation outcomes.
// Unlike classStats it keeps no latencies: the per-tenant section exists
// to show fairness (who got shed), not latency distributions.
type tenantCounters struct {
	mu                     sync.Mutex
	sent, ok, shed, failed int
}

func (t *tenantCounters) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent++
	switch {
	case err == nil:
		t.ok++
	case client.IsOverloaded(err):
		t.shed++
	default:
		t.failed++
	}
}

// TenantReport is the per-tenant section of the JSON report: completed
// operations by outcome. The shed column is the fairness signal — under a
// flooding neighbor a well-behaved tenant's sheds should stay near zero.
type TenantReport struct {
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Failed   int     `json:"failed"`
	ShedRate float64 `json:"shed_rate"`
}

// classStats accumulates one traffic class's counters and client-side
// latencies.
type classStats struct {
	mu        sync.Mutex
	sent      int
	ok        int
	shed      int
	failed    int
	latencies []float64 // milliseconds, completed ops only (ok+shed+failed)
}

// record classifies one completed operation and returns whether it was a
// server-side 5xx.
func (s *classStats) record(lat time.Duration, err error) (is5xx bool) {
	ms := float64(lat) / float64(time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies = append(s.latencies, ms)
	switch {
	case err == nil:
		s.ok++
	case client.IsOverloaded(err):
		s.shed++
	default:
		s.failed++
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status >= 500 {
			is5xx = true
		}
	}
	return is5xx
}

// ClassReport is the per-class section of the JSON report.
type ClassReport struct {
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Failed   int     `json:"failed"`
	Dropped  int     `json:"dropped"`
	ShedRate float64 `json:"shed_rate"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Report is the loadgen's JSON output: client-observed service levels per
// traffic class plus run-wide totals.
type Report struct {
	TargetRPS       float64                `json:"target_rps"`
	DurationSeconds float64                `json:"duration_seconds"`
	Workers         int                    `json:"workers"`
	AchievedRPS     float64                `json:"achieved_rps"`
	Classes         map[string]ClassReport `json:"classes"`
	// Tenants breaks completed operations out per tenant identity
	// (multi-tenant runs only).
	Tenants map[string]TenantReport `json:"tenants,omitempty"`
	Totals  struct {
		Sent      int     `json:"sent"`
		OK        int     `json:"ok"`
		Shed      int     `json:"shed"`
		Failed    int     `json:"failed"`
		Dropped   int     `json:"dropped"`
		ShedRate  float64 `json:"shed_rate"`
		Server5xx int     `json:"server_5xx"`
	} `json:"totals"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted ms samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// generator drives open-loop traffic against one service through the SDK.
type generator struct {
	clients []tenantClient // one per tenant identity; [0] in single-tenant mode
	cfg     genConfig

	scenNames   []string // weighted scenario mix, parallel slices
	scenWeights []int
	scenTotal   int

	pool      chan poolSession // idle sessions for step/watch traffic
	inflight  chan struct{}
	stats     map[string]*classStats
	tstats    map[string]*tenantCounters // per-tenant outcomes (nil single-tenant)
	dropped   map[string]*int
	server5xx int
	mu        sync.Mutex // guards server5xx and dropped
	wg        sync.WaitGroup
}

// run executes the whole load test: build the session pool, generate
// arrivals for cfg.Duration, wait for stragglers, report.
func run(ctx context.Context, clients []tenantClient, cfg genConfig) (Report, error) {
	if len(clients) == 0 {
		return Report{}, errors.New("no clients")
	}
	g := &generator{
		clients:  clients,
		cfg:      cfg,
		pool:     make(chan poolSession, cfg.Sessions),
		inflight: make(chan struct{}, cfg.Workers),
		stats:    map[string]*classStats{},
		dropped:  map[string]*int{},
	}
	classes, weights, total := mixSlices(cfg.Mix)
	if total <= 0 {
		return Report{}, errors.New("traffic mix has no positive weights")
	}
	for _, cl := range classes {
		g.stats[cl] = &classStats{}
		g.dropped[cl] = new(int)
	}
	if len(cfg.Tenants) > 0 {
		g.tstats = make(map[string]*tenantCounters, len(cfg.Tenants))
		for _, t := range cfg.Tenants {
			g.tstats[t.Name] = &tenantCounters{}
		}
	}
	g.scenNames, g.scenWeights, g.scenTotal = scenarioSlices(cfg.Scenarios)

	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	created, err := g.buildPool(ctx, rng)
	if err != nil {
		return Report{}, err
	}
	defer g.cleanup(created)

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval <= 0 {
		interval = time.Millisecond
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()

arrivals:
	for {
		select {
		case <-ctx.Done():
			break arrivals
		case now := <-tick.C:
			if now.After(deadline) {
				break arrivals
			}
			cl := pickClass(rng, classes, weights, total)
			g.dispatch(ctx, cl, rng)
		}
	}
	g.wg.Wait()
	elapsed := time.Since(start)
	return g.report(elapsed), nil
}

// mixSlices flattens the mix map into parallel class/weight slices in a
// deterministic order.
func mixSlices(mix map[string]int) ([]string, []int, int) {
	order := []string{classStep, classJob, classWatch}
	var classes []string
	var weights []int
	total := 0
	for _, cl := range order {
		w := mix[cl]
		if w > 0 {
			classes = append(classes, cl)
			weights = append(weights, w)
			total += w
		}
	}
	return classes, weights, total
}

func pickClass(rng *rand.Rand, classes []string, weights []int, total int) string {
	n := rng.IntN(total)
	for i, w := range weights {
		if n < w {
			return classes[i]
		}
		n -= w
	}
	return classes[len(classes)-1]
}

// scenarioSlices flattens the scenario mix into parallel name/weight
// slices, sorted by name so the same seed reproduces the same run.
func scenarioSlices(mix map[string]int) ([]string, []int, int) {
	names := make([]string, 0, len(mix))
	for name, w := range mix {
		if w > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	weights := make([]int, len(names))
	total := 0
	for i, name := range names {
		weights[i] = mix[name]
		total += mix[name]
	}
	return names, weights, total
}

// pickScenario returns a weighted random pack name, or "" when no scenario
// mix is configured (flat plummer spec).
func (g *generator) pickScenario(rng *rand.Rand) string {
	if g.scenTotal <= 0 {
		return ""
	}
	return pickClass(rng, g.scenNames, g.scenWeights, g.scenTotal)
}

// buildPool creates the session pool for step/watch traffic and returns
// the created sessions for cleanup. Sessions spread round-robin across the
// tenant clients so per-tenant session quotas see an even load; with a
// scenario mix each session draws a weighted pack instead of the flat
// plummer spec.
func (g *generator) buildPool(ctx context.Context, rng *rand.Rand) ([]poolSession, error) {
	needsPool := g.cfg.Mix[classStep] > 0 || g.cfg.Mix[classWatch] > 0
	if !needsPool {
		return nil, nil
	}
	var created []poolSession
	for i := 0; i < g.cfg.Sessions; i++ {
		req := client.CreateSessionRequest{Config: &client.SessionConfig{}}
		if scen := g.pickScenario(rng); scen != "" {
			// The pack owns the physics; only the size and seed are
			// overridden so runs stay small and reproducible.
			req.Scenario = &client.ScenarioSpec{Name: scen, N: g.cfg.N, Seed: g.cfg.Seed + uint64(i)}
		} else {
			req.Workload, req.N, req.Seed = "plummer", g.cfg.N, g.cfg.Seed+uint64(i)
			req.Config.DT = g.cfg.DT
		}
		if g.cfg.Pipeline {
			req.Config.Pipeline = client.Bool(true)
		}
		owner := i % len(g.clients)
		s, err := g.clients[owner].c.CreateSession(ctx, req)
		if err != nil {
			g.cleanup(created)
			return nil, fmt.Errorf("creating pool session %d/%d: %w", i+1, g.cfg.Sessions, err)
		}
		ps := poolSession{id: s.ID, owner: owner}
		created = append(created, ps)
		g.pool <- ps
	}
	return created, nil
}

func (g *generator) cleanup(sessions []poolSession) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, ps := range sessions {
		g.clients[ps.owner].c.DeleteSession(ctx, ps.id)
	}
}

// dispatch hands one arrival to a worker, or drops it when the in-flight
// cap is reached (open-loop: arrivals never queue client-side). The tenant
// and scenario draws happen here, on the arrival goroutine, because rng is
// not safe for concurrent use.
func (g *generator) dispatch(ctx context.Context, cl string, rng *rand.Rand) {
	tc := rng.IntN(len(g.clients))
	scen := g.pickScenario(rng)
	select {
	case g.inflight <- struct{}{}:
	default:
		g.mu.Lock()
		*g.dropped[cl]++
		g.mu.Unlock()
		return
	}
	st := g.stats[cl]
	st.mu.Lock()
	st.sent++
	st.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.inflight }()
		begin := time.Now()
		tenant, err := g.execute(ctx, cl, tc, scen)
		if st.record(time.Since(begin), err) {
			g.mu.Lock()
			g.server5xx++
			g.mu.Unlock()
		}
		if ts := g.tstats[tenant]; ts != nil {
			ts.record(err)
		}
	}()
}

// execute performs one operation of the given class and reports the tenant
// it ran as: jobs go out as the drawn tenant tc, step/watch as the pooled
// session's owner (the identity whose quotas the request lands on).
func (g *generator) execute(ctx context.Context, cl string, tc int, scen string) (string, error) {
	switch cl {
	case classStep:
		ps, ok := g.takeSession()
		if !ok {
			return g.clients[tc].name, errPoolExhausted
		}
		defer func() { g.pool <- ps }()
		owner := g.clients[ps.owner]
		_, err := owner.c.Step(ctx, ps.id, g.cfg.StepBatch)
		return owner.name, err
	case classWatch:
		ps, ok := g.takeSession()
		if !ok {
			return g.clients[tc].name, errPoolExhausted
		}
		defer func() { g.pool <- ps }()
		owner := g.clients[ps.owner]
		return owner.name, g.watchOnce(ctx, owner.c, ps.id)
	case classJob:
		spec := client.JobSpec{
			Steps: g.cfg.JobSteps,
			Class: g.cfg.JobClass,
		}
		if scen != "" {
			spec.Scenario = &client.ScenarioSpec{Name: scen, N: g.cfg.N, Seed: g.cfg.Seed}
		} else {
			spec.Workload = "plummer"
			spec.N = g.cfg.N
			spec.Seed = g.cfg.Seed
			spec.Config = &client.SessionConfig{DT: g.cfg.DT}
		}
		_, err := g.clients[tc].c.SubmitJob(ctx, spec)
		return g.clients[tc].name, err
	}
	return g.clients[tc].name, fmt.Errorf("unknown traffic class %q", cl)
}

// errPoolExhausted marks a step/watch arrival that found every pool
// session busy — client-side contention, counted as failed (it never
// reached the server, so it is neither ok nor shed).
var errPoolExhausted = errors.New("session pool exhausted")

func (g *generator) takeSession() (poolSession, bool) {
	select {
	case ps := <-g.pool:
		return ps, true
	default:
		return poolSession{}, false
	}
}

func (g *generator) watchOnce(ctx context.Context, c *client.Client, id string) error {
	w, err := c.Watch(ctx, id, client.WatchOptions{
		Steps: g.cfg.WatchSteps,
		Every: g.cfg.WatchEvery,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	for {
		if _, err := w.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// report assembles the final JSON structure.
func (g *generator) report(elapsed time.Duration) Report {
	rep := Report{
		TargetRPS:       g.cfg.RPS,
		DurationSeconds: elapsed.Seconds(),
		Workers:         g.cfg.Workers,
		Classes:         map[string]ClassReport{},
	}
	for cl, st := range g.stats {
		st.mu.Lock()
		row := ClassReport{
			Sent:    st.sent,
			OK:      st.ok,
			Shed:    st.shed,
			Failed:  st.failed,
			Dropped: *g.dropped[cl],
		}
		lats := append([]float64(nil), st.latencies...)
		st.mu.Unlock()
		if row.Sent > 0 {
			row.ShedRate = float64(row.Shed) / float64(row.Sent)
		}
		if len(lats) > 0 {
			sort.Float64s(lats)
			row.P50Ms = percentile(lats, 0.50)
			row.P95Ms = percentile(lats, 0.95)
			row.P99Ms = percentile(lats, 0.99)
			row.MaxMs = lats[len(lats)-1]
			sum := 0.0
			for _, v := range lats {
				sum += v
			}
			row.MeanMs = sum / float64(len(lats))
		}
		rep.Classes[cl] = row
		rep.Totals.Sent += row.Sent
		rep.Totals.OK += row.OK
		rep.Totals.Shed += row.Shed
		rep.Totals.Failed += row.Failed
		rep.Totals.Dropped += row.Dropped
	}
	if rep.Totals.Sent > 0 {
		rep.Totals.ShedRate = float64(rep.Totals.Shed) / float64(rep.Totals.Sent)
		rep.AchievedRPS = float64(rep.Totals.Sent) / elapsed.Seconds()
	}
	rep.Totals.Server5xx = g.server5xx
	if g.tstats != nil {
		rep.Tenants = make(map[string]TenantReport, len(g.tstats))
		for name, tc := range g.tstats {
			tc.mu.Lock()
			row := TenantReport{Sent: tc.sent, OK: tc.ok, Shed: tc.shed, Failed: tc.failed}
			tc.mu.Unlock()
			if row.Sent > 0 {
				row.ShedRate = float64(row.Shed) / float64(row.Sent)
			}
			rep.Tenants[name] = row
		}
	}
	return rep
}
