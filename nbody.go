// Package nbody is a pure-Go reproduction of "Efficient Tree-based Parallel
// Algorithms for N-Body Simulations Using C++ Standard Parallelism"
// (Cassell, Deakin, Alpay, Heuveline, Brito Gadeschi — SC 2024).
//
// It provides two fully-parallel Barnes-Hut force solvers — the paper's
// Concurrent Octree (parallel insertion with fine-grained CAS locking, a
// wait-free multipole tree reduction, and a stackless depth-first
// traversal) and its Hilbert-sorted balanced BVH (bodies sorted along a
// Hilbert space-filling curve, tree and moments built level-by-level) —
// plus the two O(N²) all-pairs baselines the paper evaluates against,
// Störmer-Verlet time integration, deterministic workload generators, and
// a benchmark harness regenerating every figure and table of the paper's
// evaluation on the host machine.
//
// This package is a thin facade over the implementation packages in
// internal/; see DESIGN.md for the system inventory. Quick start:
//
//	sys := nbody.NewGalaxyCollision(100_000, 42)
//	sim, err := nbody.NewSimulation(nbody.Config{
//		Algorithm: nbody.Octree,
//		DT:        1e-3,
//	}, sys)
//	if err != nil { ... }
//	err = sim.Run(100)
//
// Long runs are cancellable: sim.RunContext(ctx, n) stops at the next step
// boundary once ctx is done, which is what the nbody CLI uses for clean
// Ctrl-C handling and the nbody-serve service uses for request timeouts and
// graceful shutdown.
//
// The parallel substrate (execution policies, schedulers, parallel
// algorithms) lives in internal/par and is configured through
// Config.Runtime; see NewRuntime.
package nbody

import (
	"nbody/internal/body"
	"nbody/internal/bvh"
	"nbody/internal/core"
	"nbody/internal/grav"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/workload"
)

// Algorithm selects the force solver. See the constants below.
type Algorithm = core.Algorithm

// Force-solver algorithms, in the order the paper's figures plot them.
const (
	// Octree is the Concurrent Octree strategy (paper Section IV-A).
	Octree = core.Octree
	// BVH is the Hilbert-sorted BVH strategy (paper Section IV-B).
	BVH = core.BVH
	// AllPairs is the classical O(N²) baseline.
	AllPairs = core.AllPairs
	// AllPairsCol is the pair-parallel O(N²/2) baseline with atomic
	// accumulation.
	AllPairsCol = core.AllPairsCol
)

// Config parameterizes a simulation; see core.Config for field docs.
type Config = core.Config

// OctreeConfig selects Concurrent Octree variants (depth cap, gather-
// variant multipole reduction, key-sorted build, list group size).
type OctreeConfig = octree.Config

// BVHConfig selects Hilbert-BVH variants (leaf size, opening criterion,
// list group size).
type BVHConfig = bvh.Config

// Params are the physical and accuracy parameters (G, softening ε, θ).
type Params = grav.Params

// Sim is a running simulation created by NewSimulation.
type Sim = core.Sim

// System is the SoA particle state shared with a simulation.
type System = body.System

// Diagnostics are the conservation quantities reported by Sim.Diagnostics.
type Diagnostics = core.Diagnostics

// Runtime is a parallel execution environment (worker count + scheduler).
type Runtime = par.Runtime

// Scheduler selects how parallel loops divide work; see the constants.
type Scheduler = par.Scheduler

// Schedulers for NewRuntime.
const (
	// Dynamic self-schedules fixed-size chunks (best for irregular work).
	Dynamic = par.Dynamic
	// Static pre-assigns one contiguous block per worker.
	Static = par.Static
	// Guided self-schedules chunks that shrink with remaining work.
	Guided = par.Guided
)

// NewSimulation validates cfg and sys and returns a ready simulation.
func NewSimulation(cfg Config, sys *System) (*Sim, error) { return core.New(cfg, sys) }

// NewSystem returns a zeroed system of n bodies.
func NewSystem(n int) *System { return body.NewSystem(n) }

// NewRuntime returns a parallel runtime with the given worker count
// (<= 0 selects GOMAXPROCS) and scheduler.
func NewRuntime(workers int, sched Scheduler) *Runtime { return par.NewRuntime(workers, sched) }

// DefaultParams returns the paper's evaluation parameters (θ = 0.5, G = 1,
// small Plummer softening).
func DefaultParams() Params { return grav.DefaultParams() }

// ParseAlgorithm converts a CLI name — the String() of one of
// Algorithms() — into an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// Algorithms lists every solver: the four the paper evaluates.
func Algorithms() []Algorithm { return core.Algorithms() }

// NewGalaxyCollision generates the paper's evaluation workload: a
// deterministic collision between two disk galaxies totalling n bodies.
func NewGalaxyCollision(n int, seed uint64) *System { return workload.GalaxyCollision(n, seed) }

// NewGalaxy generates a single rotating disk galaxy of n bodies.
func NewGalaxy(n int, seed uint64) *System { return workload.Galaxy(n, seed) }

// NewPlummer generates an n-body Plummer sphere in standard N-body units.
func NewPlummer(n int, seed uint64) *System { return workload.Plummer(n, seed) }

// NewUniformCube generates n unit-mass bodies uniform in a cube.
func NewUniformCube(n int, side float64, seed uint64) *System {
	return workload.UniformCube(n, side, seed)
}

// NewSolarSystemBelt generates the synthetic small-body catalogue used by
// the validation experiment (a stand-in for NASA JPL's Small-Body
// Database): a solar-mass central body plus n-1 asteroids on realistic
// heliocentric orbits. Units: AU, days, solar masses; use GSolar for G.
func NewSolarSystemBelt(n int, seed uint64) *System { return workload.SolarSystemBelt(n, seed) }

// GSolar is the gravitational constant in the solar-system workload's units
// (AU³ per solar mass per day²).
const GSolar = workload.GSolar

// WorkloadByName dispatches a workload generator by CLI name: "galaxy",
// "galaxy-single", "plummer", "uniform", "clusters", "solarsystem".
func WorkloadByName(name string, n int, seed uint64) (*System, error) {
	return workload.ByName(name, n, seed)
}
