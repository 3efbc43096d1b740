package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbody/client"
	"nbody/internal/body"
	"nbody/internal/core"
	"nbody/internal/par"
	"nbody/internal/router"
	"nbody/internal/serve"
	"nbody/internal/simcfg"
	"nbody/internal/snapshot"
)

// stepSlots is how many sessions the benchmarked service steps at once;
// each gets nproc/stepSlots workers, as cmd/nbody-serve sizes it.
const stepSlots = 2

// sessionRuntime is the per-session parallel runtime of the service.
func sessionRuntime() *par.Runtime {
	return par.NewRuntime(max(runtime.GOMAXPROCS(0)/stepSlots, 1), par.Dynamic)
}

// stepFunc advances simulation or session i by k steps and returns the
// steps the callee acknowledged.
type stepFunc func(i, k int) (int, error)

// stack is the service under test with the workload's sessions created and
// warmed up: a serve.Manager (no store, no tenants) behind
// httptest.NewServer(serve.NewHandler(m)) and an SDK client on keep-alive
// loopback connections, retries off so that a shed request is a failure and
// not hidden latency.
type stack struct {
	w        spec
	m        *serve.Manager
	shardURL string
	c        *client.Client
	ids      []string
	closers  []func()

	createMS []float64
	// acked[i] counts the steps acknowledged for session i, warm-up included.
	acked        []int
	serverErrors atomic.Int64 // 5xx answers
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// sdk returns an SDK client for url on its own transport, closed with the
// stack.
func (st *stack) sdk(url string) (*client.Client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: st.w.clientCount()}
	st.closers = append(st.closers, tr.CloseIdleConnections)
	return client.New(url, client.WithRetries(0, 0, 0), client.WithHTTPClient(&http.Client{Transport: tr}))
}

// openStack starts the service, creates the workload's sessions through the
// SDK and sends each its one untimed warm-up request.
func openStack(w spec, seed uint64, pipeline bool) (st *stack, err error) {
	st = &stack{w: w, acked: make([]int, w.sessionCount())}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	ctx := context.Background()
	st.m, err = serve.NewManager(serve.Config{
		MaxSessions: w.sessionCount(),
		MaxBodies:   w.n,
		IdleTTL:     time.Hour,
		StepSlots:   stepSlots,
		Runtime:     sessionRuntime(),
	})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { st.m.Close(ctx) })
	shard := httptest.NewServer(serve.NewHandler(st.m))
	st.closers = append(st.closers, shard.Close)
	st.shardURL = shard.URL
	if st.c, err = st.sdk(shard.URL); err != nil {
		return nil, err
	}

	st.ids = make([]string, w.sessionCount())
	for i := range st.ids {
		t := time.Now()
		s, err := st.c.CreateSession(ctx, client.CreateSessionRequest{
			Workload: w.gen, N: w.n, Seed: simSeed(seed, i),
			Config: w.clientConfig(pipeline),
		})
		if err != nil {
			return nil, err
		}
		st.ids[i] = s.ID
		st.createMS = append(st.createMS, msSince(t))
	}
	warm, err := warmUp(w, st.overHTTP(st.c))
	st.count(warm)
	return st, err
}

// overHTTP steps the sessions through SDK client c.
func (st *stack) overHTTP(c *client.Client) stepFunc {
	return func(i, k int) (int, error) {
		res, err := c.Step(context.Background(), st.ids[i], k)
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status >= 500 {
			st.serverErrors.Add(1)
		}
		return res.Completed, err
	}
}

// inProcess steps the sessions by calling the manager directly.
func (st *stack) inProcess() stepFunc {
	return func(i, k int) (int, error) {
		res, err := st.m.Step(context.Background(), st.ids[i], k)
		return res.Completed, err
	}
}

// throughRouter puts router.New in front of the one shard and steps the
// same sessions through it. (With a single shard every ID maps to it.)
func (st *stack) throughRouter() (stepFunc, error) {
	rt, err := router.New(router.Config{Shards: []router.ShardConfig{{Name: "a", URL: st.shardURL}}})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, rt.Close)
	front := httptest.NewServer(rt.Handler())
	st.closers = append(st.closers, front.Close)
	c, err := st.sdk(front.URL)
	if err != nil {
		return nil, err
	}
	return st.overHTTP(c), nil
}

// count adds a window's acknowledged steps to the per-session totals.
func (st *stack) count(acked []int) {
	for i, n := range acked {
		st.acked[i] += n
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// warmUp sends each session its one untimed request.
func warmUp(w spec, step stepFunc) ([]int, error) {
	acked := make([]int, w.sessionCount())
	for i := range acked {
		n, err := step(i, w.reqSteps())
		acked[i] = n
		if err != nil {
			return acked, fmt.Errorf("warm-up of session %d: %w", i, err)
		}
	}
	return acked, nil
}

// sessionCount, clientCount and reqSteps give an engine workload the
// serving shape its traced ladder uses: one session, one caller, one step
// per request.
func (w spec) sessionCount() int { return max(w.sessions, 1) }
func (w spec) clientCount() int  { return max(w.clients, 1) }
func (w spec) reqSteps() int     { return max(w.stepsPerReq, 1) }

// closedLoop drives the workload's sessions through step with the given
// number of clients until lim, and returns the op log and the steps
// acknowledged per session. Sessions are dealt round-robin to clients; a
// client steps its sessions in turn and sends the next request only when
// the previous one has answered.
func closedLoop(w spec, step stepFunc, clients int, lim limit) (opLog, []int) {
	acked := make([]int, w.sessionCount())
	logs := make([]opLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var mine []int
		for i := c; i < len(acked); i += clients {
			mine = append(mine, i)
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = timeOps(lim, func(k int) error {
				i := mine[k%len(mine)]
				n, err := step(i, w.reqSteps())
				acked[i] += n // session i belongs to this client alone
				return err
			})
		}(c)
	}
	wg.Wait()
	var all opLog
	for c := range logs {
		all.merge(logs[c])
	}
	return all, acked
}

// runServe is the untraced run of a serve workload: closed loop, w.clients
// callers over keep-alive loopback HTTP, one op per step request.
func runServe(w spec, o options, rep *report) error {
	t := time.Now()
	st, err := openStack(w, o.seed, false)
	if err != nil {
		return err
	}
	setup := time.Since(t)
	defer st.close()

	log, acked := closedLoop(w, st.overHTTP(st.c), w.clients, o.lim)
	st.count(acked)
	timed := 0
	for _, n := range acked {
		timed += n
	}
	rep.ops(log)
	rep.latencyMetrics(w, log, float64(w.n)*float64(timed))
	rep.check(st.serverErrors.Load() == 0, "%d requests answered 5xx", st.serverErrors.Load())
	rep.check(st.m.Metrics().RejectedSteps == 0, "%d step requests shed", st.m.Metrics().RejectedSteps)

	var l2 l2Accum
	var drifts []float64
	ctx := context.Background()
	for i, id := range st.ids {
		info, err := st.c.Session(ctx, id)
		if err != nil {
			return err
		}
		rep.check(info.Steps == st.acked[i], "session %s reports %d steps, %d were acknowledged", id, info.Steps, st.acked[i])
		sys, err := downloadSnapshot(ctx, st.c, id)
		if err != nil {
			return err
		}
		rep.check(sys.Validate() == nil, "session %s final state invalid: %v", id, sys.Validate())
		// The sessions are small enough to check every body, not a sample.
		l2.add(sys, sampleBodies(sys.N(), sys.N(), o.seed), info.Config.G, info.Config.Eps)
		if i == 0 {
			// Replaying every session would cost as much as the window
			// itself; one is replayed.
			rel, err := replayDistance(w, o.seed, i, info, sys)
			if err != nil {
				return err
			}
			rep.check(rel <= 1e-9, "session %s is %.3g (relative position L2) from a direct core.Sim run of its echoed config", id, rel)
			fmt.Fprintf(rep.out, "# session %s is %.3g (relative position L2) from a direct core.Sim run of %d steps\n", id, rel, info.Steps)
		}
		drift, err := traceDrift(ctx, st.c, id)
		if err != nil {
			return err
		}
		drifts = append(drifts, drift)
	}
	// One unlucky close encounter in one small cluster must not decide the
	// check, so it is the median session that has to conserve energy.
	drift := median(drifts)
	rep.check(drift <= w.driftTol, "relative energy drift %.3g (median session) over the window exceeds %g", drift, w.driftTol)
	fmt.Fprintf(rep.out, "# energy drift %.3g (median session), %.3g (worst)\n", drift, slices.Max(drifts))
	rep.l2Metric(w, l2.p90())
	rep.add("mem_peak_mb", peakMemMB(0), "MB", "")

	st.close()
	return reportSetup(rep, o, setup, func() (func(), error) {
		again, err := openStack(w, o.seed, false)
		if err != nil {
			return nil, err
		}
		return again.close, nil
	})
}

func downloadSnapshot(ctx context.Context, c *client.Client, id string) (*body.System, error) {
	rc, err := c.DownloadSnapshot(ctx, id)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	sys, _, err := snapshot.Read(rc)
	return sys, err
}

// replayDistance re-runs session i from its generator through a bare
// core.Sim with the configuration the server echoed, and returns the
// relative L2 distance between the two final position sets, matched by
// body ID.
func replayDistance(w spec, seed uint64, i int, info client.Session, got *body.System) (float64, error) {
	e := info.Config
	cfg, err := simcfg.Effective{
		Algorithm: e.Algorithm, Layout: e.Layout, DT: e.DT, Theta: e.Theta, Eps: e.Eps, G: e.G,
		Sequential: e.Sequential,
		TreeReuse:  simcfg.TreeReuse{RebuildEvery: e.TreeReuse.RebuildEvery, RefitThreshold: e.TreeReuse.RefitThreshold},
	}.CoreConfig()
	if err != nil {
		return 0, err
	}
	cfg.Runtime = sessionRuntime()
	sys, err := w.bodies(seed, i)
	if err != nil {
		return 0, err
	}
	sim, err := core.New(cfg, sys)
	if err != nil {
		return 0, err
	}
	if err := sim.Run(info.Steps); err != nil {
		return 0, err
	}
	return positionDistance(sys, got), nil
}

// positionDistance is sqrt(Σ|a−b|² ÷ Σ|a|²) over bodies matched by ID.
func positionDistance(a, b *body.System) float64 {
	slot := make([]int, b.N())
	for i, id := range b.ID {
		slot[id] = i
	}
	var num, den float64
	for i, id := range a.ID {
		j := slot[id]
		dx, dy, dz := a.PosX[i]-b.PosX[j], a.PosY[i]-b.PosY[j], a.PosZ[i]-b.PosZ[j]
		num += dx*dx + dy*dy + dz*dz
		den += a.PosX[i]*a.PosX[i] + a.PosY[i]*a.PosY[i] + a.PosZ[i]*a.PosZ[i]
	}
	return math.Sqrt(num / den)
}

// traceDrift reads the session's diagnostics trace (one sample per step
// request) through the SDK and returns |E_last − E_first| ÷ |E_first|.
func traceDrift(ctx context.Context, c *client.Client, id string) (float64, error) {
	rc, err := c.SessionTrace(ctx, id)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	var first, last float64
	samples, col := 0, -1
	sc := bufio.NewScanner(rc)
	for sc.Scan() {
		f := strings.Split(sc.Text(), ",")
		if col < 0 {
			for i, name := range f {
				if name == "total_energy" {
					col = i
				}
			}
			if col < 0 {
				return 0, fmt.Errorf("session %s trace has no total_energy column", id)
			}
			continue
		}
		e, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			return 0, fmt.Errorf("session %s trace: %w", id, err)
		}
		if samples == 0 {
			first = e
		}
		last = e
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if samples < 2 {
		return 0, fmt.Errorf("session %s trace has %d samples", id, samples)
	}
	return math.Abs(last-first) / math.Abs(first), nil
}
