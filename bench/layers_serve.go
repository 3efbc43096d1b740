package main

import (
	"fmt"
	"slices"

	"nbody/internal/core"
)

// bareSessions builds the workload's simulations with no service around
// them — core.New on the per-session runtime — as the ladder's floor.
func bareSessions(w spec, seed uint64) (stepFunc, error) {
	sims := make([]*core.Sim, w.sessionCount())
	for i := range sims {
		sys, err := w.bodies(seed, i)
		if err != nil {
			return nil, err
		}
		cfg, err := w.cfg.CoreConfig()
		if err != nil {
			return nil, err
		}
		cfg.Runtime = sessionRuntime()
		if sims[i], err = core.New(cfg, sys); err != nil {
			return nil, err
		}
	}
	return func(i, k int) (int, error) { return k, sims[i].Run(k) }, nil
}

// spanned wraps step so every request is a span with its own trace ID.
func spanned(tr *tracer, name string, step stepFunc) stepFunc {
	return func(i, k int) (int, error) {
		id := tr.start(name, 0, tr.newTrace())
		defer tr.end(id)
		return step(i, k)
	}
}

// serveLadder is the traced pass over the serving layers. One caller sends
// the same request sequence — the workload's sessions in turn, its steps per
// request — at four depths: a bare Sim.Run, Manager.Step in process, the
// handler and SDK over loopback, and a router in front of that one shard.
// Each layer's overhead is the difference of two medians. Then the
// workload's own traffic runs with config.pipeline=true, which moves
// stepping from the slot semaphore onto the internal/exec phase graph.
func serveLadder(w spec, o options, rep *report, tr *tracer) error {
	reqs, pipelined := w.ladderReqs, w.pipelinedReqs
	if o.smoke {
		reqs, pipelined = min(reqs, 8), min(pipelined, 8)
	}
	replay := func(name string, step stepFunc) float64 {
		log, _ := closedLoop(w, spanned(tr, name, step), 1, limit{ops: reqs})
		rep.ops(log)
		return 1000 * median(log.lat)
	}

	bare, err := bareSessions(w, o.seed)
	if err != nil {
		return err
	}
	if _, err := warmUp(w, bare); err != nil {
		return err
	}
	coreUS := replay("core.request", bare)

	st, err := openStack(w, o.seed, false)
	if err != nil {
		return err
	}
	defer st.close()
	managerUS := replay("serve.manager", st.inProcess())
	httpUS := replay("serve.http", st.overHTTP(st.c))
	// The router probes its shard in the background, so it only exists
	// while its own depth is measured.
	viaRouter, err := st.throughRouter()
	if err != nil {
		return err
	}
	routerUS := replay("router.hop", viaRouter)

	rep.add("core.request_us", coreUS, "us", fmt.Sprintf("median of %d requests × %d steps, one caller", reqs, w.reqSteps()))
	rep.add("serve.manager_us", managerUS, "us", "")
	rep.add("serve.manager_overhead_us", managerUS-coreUS, "us", "Manager.Step − Sim.Run")
	rep.add("serve.http_us", httpUS, "us", "")
	rep.add("serve.http_overhead_us", httpUS-managerUS, "us", "handler + SDK over loopback")
	rep.add("router.hop_us", routerUS, "us", "")
	rep.add("router.hop_overhead_us", routerUS-httpUS, "us", "router.New in front of one shard")
	rep.add("serve.create_ms", median(st.createMS), "ms", fmt.Sprintf("%d sessions over HTTP", len(st.createMS)))
	rep.add("serve.rejected_steps", float64(st.m.Metrics().RejectedSteps), "count", "")
	rep.check(st.serverErrors.Load() == 0, "%d requests answered 5xx", st.serverErrors.Load())
	st.close()

	piped, err := openStack(w, o.seed, true)
	if err != nil {
		return err
	}
	defer piped.close()
	before := piped.m.Metrics().Exec
	clients := w.clientCount()
	log, acked := closedLoop(w, spanned(tr, "exec.pipelined", piped.overHTTP(piped.c)), clients, limit{ops: max(pipelined/clients, 1)})
	after := piped.m.Metrics().Exec
	rep.ops(log)
	rep.check(piped.serverErrors.Load() == 0, "%d pipelined requests answered 5xx", piped.serverErrors.Load())
	steps := 0
	for _, n := range acked {
		steps += n
	}
	wall := log.wall.Seconds()
	rep.add("exec.pipelined_body_steps_per_s", float64(w.n)*float64(steps)/wall, "1/s",
		fmt.Sprintf("%d requests, %d callers, config.pipeline=true", len(log.lat), clients))
	rep.add("exec.pipelined_op_ms_p50", percentile(slices.Sorted(slices.Values(log.lat)), 50), "ms", "")
	rep.add("exec.overlap_share", (after.OverlapSeconds-before.OverlapSeconds)/wall, "share", "time with ≥ 2 phase tasks running")
	rep.add("exec.stall_share", (after.StallSeconds-before.StallSeconds)/wall, "share", "workers idle, every task blocked")
	return nil
}
