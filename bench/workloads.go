package main

import (
	"fmt"

	"nbody/client"
	"nbody/internal/body"
	"nbody/internal/simcfg"
	"nbody/internal/workload"
)

// spec is one benchmark workload: an input generator, a resolved physics
// configuration and the shape of the load. Engine workloads (sessions == 0)
// step one simulation on the whole machine; serve workloads drive sessions
// closed-loop through the SDK over loopback HTTP.
type spec struct {
	name string
	// gen and n name the workload.ByName generator and body count of each
	// simulation; the run's --seed seeds it (see simSeed).
	gen string
	n   int
	cfg simcfg.Effective

	// sessions, clients and stepsPerReq shape a serve workload: sessions
	// are dealt round-robin to clients, and each client steps its own
	// sessions in turn, waiting for every reply (closed loop), because an
	// SDK caller steps a session serially.
	sessions    int
	clients     int
	stepsPerReq int

	// tailPct is the percentile op_ms_tail reports: the highest the
	// workload's op count supports with ten samples beyond it, fixed here
	// so the metric means the same thing on every run.
	tailPct float64
	// ladderReqs and pipelinedReqs size the traced serving ladder: requests
	// replayed at each depth, and requests of pipelined traffic.
	ladderReqs    int
	pipelinedReqs int

	// l2Ref is accel_l2_error measured at the commit that defined the
	// benchmark (median over ten seeds); a run fails above 2× it.
	l2Ref float64
	// driftTol bounds the relative energy drift over the timed window. It is
	// a net for a broken integrator, not an accuracy claim: each value sits
	// an order of magnitude above what the workload's own dt and ε produce,
	// because one hard close encounter can cost a run 2 % on its own.
	driftTol float64
}

func (w spec) serve() bool { return w.sessions > 0 }

// scaled returns the workload shrunk for -smoke: 1/50 of the bodies (at
// least 64), so every code path runs in well under a second. The accuracy
// gates were recorded at full size, so a smoke run only has to stay sane.
func (w spec) scaled(smoke bool) spec {
	if smoke {
		w.n = max(w.n/50, 64)
		w.l2Ref, w.driftTol = 0.025, 1
	}
	return w
}

// simSeed is the generator seed of simulation i under run seed `seed`.
// Consecutive run seeds must not share simulations, or ten "different"
// runs of a 16-session workload would mostly repeat one another.
func simSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// bodies generates simulation i's initial state.
func (w spec) bodies(seed uint64, i int) (*body.System, error) {
	return workload.ByName(w.gen, w.n, simSeed(seed, i))
}

// clientConfig spells the resolved configuration as an SDK request with
// every field pinned, so the server resolves exactly w.cfg.
func (w spec) clientConfig(pipeline bool) *client.SessionConfig {
	e := w.cfg
	return &client.SessionConfig{
		Algorithm:  e.Algorithm,
		Layout:     e.Layout,
		DT:         e.DT,
		Theta:      client.Float64(e.Theta),
		Eps:        client.Float64(e.Eps),
		G:          client.Float64(e.G),
		Sequential: client.Bool(e.Sequential),
		TreeReuse: &client.TreeReuseConfig{
			RebuildEvery:   e.TreeReuse.RebuildEvery,
			RefitThreshold: e.TreeReuse.RefitThreshold,
		},
		Pipeline: client.Bool(pipeline),
	}
}

// resolve builds a workload configuration the way the service would:
// cfg merged over the defaults and validated.
func resolve(cfg *simcfg.Config) simcfg.Effective {
	e, err := simcfg.Resolve(simcfg.Legacy{}, cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: workload config: %v", err))
	}
	return e
}

// embeddingConfig is the shipped tsne-embedding scenario pack's preset.
func embeddingConfig() *simcfg.Config {
	p, err := simcfg.PackByName("tsne-embedding")
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return p.Config
}

// workloads is the fixed set, in the order BENCHMARK.json lists it. The
// `why` of each lives in BENCHMARK.json and bench/README.md.
func workloads() []spec {
	return []spec{
		{
			name: "octree-galaxy-100k", gen: "galaxy", n: 100_000,
			cfg:     resolve(&simcfg.Config{Algorithm: "octree", DT: 1e-5}),
			tailPct: 60, ladderReqs: 2, pipelinedReqs: 2,
			l2Ref: 1.06e-3, driftTol: 5e-3,
		},
		{
			name: "bvh-galaxy-100k", gen: "galaxy", n: 100_000,
			cfg:     resolve(&simcfg.Config{Algorithm: "bvh", DT: 1e-5}),
			tailPct: 60, ladderReqs: 2, pipelinedReqs: 2,
			l2Ref: 9.5e-4, driftTol: 5e-3,
		},
		{
			name: "octree-embedding-200k", gen: "embedding", n: 200_000,
			cfg:     resolve(simcfg.MergeConfig(embeddingConfig(), &simcfg.Config{Algorithm: "octree"})),
			tailPct: 60, ladderReqs: 2, pipelinedReqs: 2,
			// The preset is tuned for layout quality, not orbits: the cloud
			// starts at rest and collapses (drift 0.1–0.2 over the window), so
			// energy only has to stay of its own order.
			l2Ref: 4.3e-2, driftTol: 1,
		},
		{
			name: "bvh-refit-100k", gen: "galaxy", n: 100_000,
			cfg: resolve(&simcfg.Config{Algorithm: "bvh", DT: 1e-3,
				TreeReuse: &simcfg.TreeReuse{RefitThreshold: 0.02}}),
			tailPct: 60, ladderReqs: 2, pipelinedReqs: 2,
			l2Ref: 9.5e-4, driftTol: 0.1,
		},
		{
			name: "serve-http-256", gen: "plummer", n: 256,
			cfg: resolve(&simcfg.Config{DT: 1e-3}),
			// One caller: two 1 ms request chains on two vCPUs flip between
			// busy cores (1.2 ms) and idle wake-ups (1.8 ms) every few seconds,
			// and ten runs' medians then spread by a third (README).
			sessions: 16, clients: 1, stepsPerReq: 1,
			tailPct: 90, ladderReqs: 2000, pipelinedReqs: 4000,
			// ε = 10⁻³ lets close pairs of a 256-body cluster scatter hard; the
			// median session conserves energy to ~4e-4.
			l2Ref: 5.5e-4, driftTol: 1e-2,
		},
		{
			name: "serve-multi-2k", gen: "plummer", n: 2048,
			cfg:      resolve(&simcfg.Config{DT: 1e-3}),
			sessions: 4, clients: 2, stepsPerReq: 5,
			tailPct: 90, ladderReqs: 40, pipelinedReqs: 60,
			l2Ref: 1.31e-3, driftTol: 5e-3,
		},
	}
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
