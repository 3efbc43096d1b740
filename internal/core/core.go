// Package core is the simulation engine: it composes the substrates
// (bounding box, tree construction, multipoles, force calculation, time
// integration) into the five-step Barnes-Hut loop of the paper's
// Algorithm 2 (Concurrent Octree) and Algorithm 6 (Hilbert BVH), records
// per-phase timings, and exposes conservation diagnostics.
//
// The two algorithms are one loop that differs only in which structure
// each phase calls, so New chooses the octree or the BVH once and puts it
// behind the solver seam (the unexported tree interface); the structure
// and force phases ask the seam instead of switching on the algorithm.
//
// Each algorithm runs its phases under the execution policies the paper
// prescribes: the octree build and multipole reduction need par (they
// synchronize between iterations), all remaining phases run under
// par_unseq. A Sequential configuration replaces every policy with seq for
// the paper's sequential-vs-parallel comparison (Figure 5).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/bvh"
	"nbody/internal/grav"
	"nbody/internal/integrator"
	"nbody/internal/metrics"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/vec"
	"nbody/internal/walk"
)

// Algorithm selects the force solver.
type Algorithm int

const (
	// Octree is the paper's Concurrent Octree strategy (Section IV-A).
	Octree Algorithm = iota
	// BVH is the paper's Hilbert-sorted BVH strategy (Section IV-B).
	BVH
	// AllPairs is the classical O(N²) particle-particle baseline.
	AllPairs
	// AllPairsCol is the O(N²/2) pair-parallel baseline with atomic
	// accumulation.
	AllPairsCol
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Octree:
		return "octree"
	case BVH:
		return "bvh"
	case AllPairs:
		return "all-pairs"
	case AllPairsCol:
		return "all-pairs-col"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every solver — the four the paper evaluates, in the
// order its figures plot them. It is the one list ParseAlgorithm, its
// error text and every front end's enum are generated from.
func Algorithms() []Algorithm { return []Algorithm{AllPairs, AllPairsCol, Octree, BVH} }

// Layout selects the force-evaluation data path.
type Layout int

const (
	// LayoutFlat (the default) evaluates forces through flat per-group
	// interaction lists: tree walks collect accepted nodes and leaf bodies
	// into dense SoA arrays that a tight branch-free loop then evaluates
	// (packages walk and soa). Tree algorithms under
	// this layout use the conservative group opening criterion, so
	// accuracy is never worse than the walk layout at equal θ.
	LayoutFlat Layout = iota
	// LayoutWalk keeps the per-body tree-walk kernels — the paper's
	// baseline data path.
	LayoutWalk
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutFlat:
		return "flat"
	case LayoutWalk:
		return "walk"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Layouts lists the force-evaluation layouts.
func Layouts() []Layout { return []Layout{LayoutFlat, LayoutWalk} }

// ParseLayout converts a CLI/API name into a Layout.
func ParseLayout(name string) (Layout, error) {
	for _, l := range Layouts() {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown layout %q (want flat or walk)", name)
}

// AlgorithmNames returns the names of Algorithms(), comma-separated, for
// error and help text.
func AlgorithmNames() string {
	names := make([]string, 0, len(Algorithms()))
	for _, a := range Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

// ParseAlgorithm converts a CLI/API name into one of Algorithms().
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %s)", name, AlgorithmNames())
}

// Config parameterizes a simulation.
type Config struct {
	// Algorithm selects the force solver. Default: Octree.
	Algorithm Algorithm
	// Params are the physical/accuracy parameters (G, softening, θ).
	// A zero value selects grav.DefaultParams().
	Params grav.Params
	// DT is the integration timestep (required, > 0).
	DT float64
	// Runtime is the parallel runtime to execute on. Default:
	// par.Default().
	Runtime *par.Runtime
	// Sequential replaces every execution policy with seq — the paper's
	// single-core baseline configuration.
	Sequential bool
	// Layout selects the force-evaluation data path: flat interaction
	// lists (default) or the per-body walk kernels. See Layout.
	Layout Layout
	// RebuildEvery rebuilds the spatial structure from scratch every k
	// steps (default 1 = every step). For k > 1, intermediate steps refit
	// the previous tree: the octree keeps its topology (refreshing
	// multipoles), the BVH skips the Hilbert sort (refreshing boxes and
	// moments, which stay exact). This is the tree-reuse approximation of
	// Iwasawa et al. discussed in the paper's related work. Refit work is
	// recorded under the metrics "refit" phase.
	RebuildEvery int
	// RefitThreshold, when > 0, switches tree reuse from the fixed
	// RebuildEvery cadence to an adaptive, displacement-driven policy:
	// each step accumulates an upper bound on how far any body moved
	// (dt·max|v|), and the structure is refit in place — moments for the
	// octree, bounds+moments for the BVH — until the accumulated drift
	// since the last full rebuild exceeds RefitThreshold × the root box
	// extent, which forces a rebuild (re-sort, re-insert) and resets the
	// accumulator. RebuildEvery > 1 then acts as a hard cadence cap on
	// top. Typical values are 0.01-0.05; 0 disables adaptive reuse.
	RefitThreshold float64
	// Octree configures the Concurrent Octree solver.
	Octree octree.Config
	// BVH configures the Hilbert BVH solver.
	BVH bvh.Config
	// ValidateEvery, when positive, re-validates the body system every k
	// steps and aborts the run with a descriptive error if any state has
	// become non-finite — catching integration blow-ups (e.g. an
	// unsoftened close encounter with too large a timestep) at the step
	// they happen instead of producing NaN results silently.
	ValidateEvery int
	// Pipeline marks the simulation for phase-graph pipelined execution:
	// the serving layer steps it through RunPipelined (phase tasks on a
	// shared executor) instead of whole-step slots. The trajectory is
	// bit-exact either way — the knob changes scheduling, not physics —
	// so core itself only carries the preference.
	Pipeline bool
	// PublishCommits maintains a double-buffered copy of the body system,
	// refreshed at every committed step boundary (see Committed). Readers
	// that may observe the simulation mid-step — snapshot downloads and
	// checkpoints racing a pipelined or cancelled run — read the
	// committed copy instead of the live arrays. Costs one extra system
	// copy per step; CLI and benchmark paths leave it off.
	PublishCommits bool
}

// Sim is a running simulation. Create one with New.
type Sim struct {
	cfg  Config
	sys  *body.System
	rt   *par.Runtime
	pol  policies
	tree tree // the solver seam; nil for the all-pairs baselines

	breakdown metrics.Breakdown
	step      int
	haveAcc   bool
	// phi is each body's potential (per unit mass, G-scaled) as the last
	// force pass wrote it beside the accelerations — every solver but
	// AllPairsCol. It describes the positions in sys whenever the cursor
	// is idle with haveAcc set.
	phi []float64

	// Phase-cursor state: cursor marks the next phase of the in-flight
	// step (curIdle between steps), pendingRebuild the structure decision
	// update1 made for it. Together they make a step resumable at phase
	// granularity: a cancelled StepContext, or a pipelined run whose
	// remaining tasks were skipped, leaves the cursor mid-step and the
	// next call picks up exactly where it stopped — bit-exact, because no
	// phase ever runs twice (floating-point update phases are not
	// invertible, so rollback is not an option).
	cursor         stepPhase
	pendingRebuild bool

	// Committed double buffer (PublishCommits): the body system as of the
	// last committed step boundary, and that step's count.
	committed     *body.System
	committedStep int

	// Adaptive tree-reuse state (RefitThreshold > 0): driftAcc upper-bounds
	// the distance any body has moved since the last full rebuild,
	// rootExtent is the root box edge recorded at that rebuild, and
	// lastRebuild the step it happened on. rebuilds/refits count the structure
	// phases run under either reuse policy, for observability and tests.
	driftAcc    float64
	rootExtent  float64
	lastRebuild int
	rebuilds    int
	refits      int
}

// policies bundles the per-phase execution policies.
type policies struct {
	reduce par.Policy // bounding box
	sync   par.Policy // par: BVH sort and build, pair-parallel atomics
	force  par.Policy
	update par.Policy
}

// New validates cfg and sys and returns a ready simulation. The body system
// is used in place (not copied); tree algorithms may permute its body order
// during stepping.
func New(cfg Config, sys *body.System) (*Sim, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid system: %w", err)
	}
	if cfg.Params == (grav.Params{}) {
		cfg.Params = grav.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.DT > 0) || math.IsInf(cfg.DT, 0) {
		return nil, fmt.Errorf("core: timestep %v must be positive and finite", cfg.DT)
	}
	if cfg.Runtime == nil {
		cfg.Runtime = par.Default()
	}
	if cfg.RebuildEvery <= 0 {
		cfg.RebuildEvery = 1
	}
	switch cfg.Layout {
	case LayoutFlat, LayoutWalk:
	default:
		return nil, fmt.Errorf("core: unknown layout %v", cfg.Layout)
	}
	if cfg.RefitThreshold < 0 || math.IsNaN(cfg.RefitThreshold) || math.IsInf(cfg.RefitThreshold, 0) {
		return nil, fmt.Errorf("core: refit threshold %v must be finite and non-negative", cfg.RefitThreshold)
	}
	if cfg.Algorithm == Octree && cfg.Layout == LayoutFlat {
		// The flat interaction-list walk shares one traversal among a
		// group of consecutive bodies; without spatial sorting those
		// groups span the whole domain and the conservative criterion
		// opens everything. So the bodies are curve-ordered
		// unconditionally, and the tree is built from the sorted keys
		// rather than by inserting into it (octree.Config.KeySorted).
		cfg.Octree.KeySorted = true
	}

	s := &Sim{cfg: cfg, sys: sys, rt: cfg.Runtime}
	if cfg.Sequential {
		s.rt = par.NewRuntime(1, cfg.Runtime.Scheduler())
		s.pol = policies{par.Seq, par.Seq, par.Seq, par.Seq}
	} else {
		s.pol = policies{par.ParUnseq, par.Par, par.ParUnseq, par.ParUnseq}
	}

	switch cfg.Algorithm {
	case Octree:
		s.tree = octreeSolver{octree.New(cfg.Octree)}
	case BVH:
		s.tree = bvhSolver{bvh.New(cfg.BVH)}
	case AllPairs, AllPairsCol:
		// no structure: the force pass sums pairs directly
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}
	if cfg.PublishCommits {
		s.committed = sys.Clone()
	}
	return s, nil
}

// System returns the simulated body system (shared, not a copy).
func (s *Sim) System() *body.System { return s.sys }

// StepCount returns the number of completed steps.
func (s *Sim) StepCount() int { return s.step }

// Breakdown returns the accumulated per-phase timings.
func (s *Sim) Breakdown() *metrics.Breakdown { return &s.breakdown }

// Config returns the simulation configuration (with defaults applied).
func (s *Sim) Config() Config { return s.cfg }

// Rebuilds returns the number of full structure rebuilds performed.
func (s *Sim) Rebuilds() int { return s.rebuilds }

// Refits returns the number of in-place refit passes: every octree or
// BVH structure pass that was not a full rebuild, whether the reuse came
// from the RebuildEvery cadence or the RefitThreshold drift bound.
func (s *Sim) Refits() int { return s.refits }

// adaptiveReuse reports whether displacement-driven tree reuse is active.
func (s *Sim) adaptiveReuse() bool {
	return s.cfg.RefitThreshold > 0 && s.tree != nil
}

// needRebuild decides between a full structure rebuild and the tree-reuse
// fast path for this step's force pass.
func (s *Sim) needRebuild() bool {
	if !s.adaptiveReuse() {
		return s.step%s.cfg.RebuildEvery == 0
	}
	if s.rootExtent <= 0 {
		return true // nothing to reuse yet
	}
	if k := s.cfg.RebuildEvery; k > 1 && s.step-s.lastRebuild >= k {
		return true // hard cadence cap
	}
	return s.driftAcc > s.cfg.RefitThreshold*s.rootExtent
}

// noteRebuild tells the reuse policy the structure was rebuilt at the
// current step with the given root box extent, resetting the drift
// accumulator.
func (s *Sim) noteRebuild(extent float64) {
	s.lastRebuild = s.step
	s.driftAcc = 0
	s.rootExtent = extent
}

// maxSpeed returns max |v| over all bodies — the per-step displacement
// bound the adaptive reuse policy integrates.
func (s *Sim) maxSpeed() float64 {
	vx, vy, vz := s.sys.VelX, s.sys.VelY, s.sys.VelZ
	m := par.ReduceRanges(s.rt, s.pol.reduce, len(vx), 0,
		math.Max,
		func(acc float64, lo, hi int) float64 {
			for i := lo; i < hi; i++ {
				if v2 := vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i]; v2 > acc {
					acc = v2
				}
			}
			return acc
		})
	return math.Sqrt(m)
}

// stepPhase is the cursor over one step of the kick-drift-kick loop. The
// values are ordered as the phases execute; curIdle sits between steps.
type stepPhase int8

const (
	curIdle stepPhase = iota
	// curInitStructure/curInitForce compute the accelerations at t₀ that
	// the very first half-kick needs; they run once per simulation.
	curInitStructure
	curInitForce
	// curUpdate1 is the first half-kick plus the drift; it also decides
	// whether this step's structure pass rebuilds or reuses.
	curUpdate1
	// curStructure is bounds → sort → build → moments on rebuild steps,
	// collapsed to a single refit pass on tree-reuse steps (DESIGN.md
	// §13), and empty for the all-pairs baselines.
	curStructure
	// curForce refreshes the accelerations from the structure.
	curForce
	// curUpdate2 is the closing half-kick; committing the step (counter,
	// validation, publish) rides on it.
	curUpdate2
)

// String implements fmt.Stringer.
func (p stepPhase) String() string {
	switch p {
	case curIdle:
		return "idle"
	case curInitStructure:
		return "init-structure"
	case curInitForce:
		return "init-force"
	case curUpdate1:
		return "update1"
	case curStructure:
		return "structure"
	case curForce:
		return "force"
	case curUpdate2:
		return "update2"
	}
	return fmt.Sprintf("stepPhase(%d)", int8(p))
}

// MidStep reports whether a step is in flight: a previous StepContext (or
// pipelined run) was cancelled between phases. The live arrays are then
// mid-step (positions drifted, velocities half-kicked) and the next
// Step/StepContext/RunPipelined call resumes the in-flight step instead of
// starting a new one.
func (s *Sim) MidStep() bool { return s.cursor != curIdle }

// Step advances the simulation by one timestep using kick-drift-kick
// Störmer-Verlet integration around a full force recalculation. If a
// previous cancelled run left a step in flight, Step first finishes it
// (that resumed step is the one advanced).
func (s *Sim) Step() error { return s.StepContext(context.Background()) }

// StepContext advances the simulation by one committed step, checking ctx
// between phases. On cancellation the phase in flight always completes —
// the integrator is never left mid-kick — but the step may stop between
// phases: the cursor then marks the next phase and a later call resumes
// the step bit-exactly from there (MidStep reports this state). The
// returned error wraps ctx's cancellation cause, so errors.Is(err,
// context.Canceled) (or DeadlineExceeded) identifies an interrupted rather
// than failed step.
func (s *Sim) StepContext(ctx context.Context) error {
	return s.advance(ctx, curIdle)
}

// advance runs phases until the cursor reaches stop, or — when stop is
// curIdle — until the in-flight step commits. ctx (nil to disable) is
// checked before each phase. This one state machine backs both the
// synchronous path (advance to commit) and the pipelined path, whose
// phase tasks each advance to the next task's phase; sharing it is what
// makes the two paths bit-exact and mutually resumable.
func (s *Sim) advance(ctx context.Context, stop stepPhase) error {
	if s.cursor == curIdle {
		if s.haveAcc {
			s.cursor = curUpdate1
		} else {
			// The very first step needs accelerations at t₀ for the
			// initial half-kick.
			s.cursor = curInitStructure
		}
	}
	for {
		if s.cursor == stop {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				if cause := context.Cause(ctx); cause != nil {
					err = cause
				}
				return fmt.Errorf("core: step %d interrupted before %s: %w", s.step, s.cursor, err)
			}
		}
		switch s.cursor {
		case curInitStructure:
			if err := s.phaseStructure(true); err != nil {
				return err
			}
			s.cursor = curInitForce
		case curInitForce:
			s.phaseForce()
			s.haveAcc = true
			s.cursor = curUpdate1
		case curUpdate1:
			s.phaseUpdate1()
			s.cursor = curStructure
		case curStructure:
			if err := s.phaseStructure(s.pendingRebuild); err != nil {
				return err
			}
			s.cursor = curForce
		case curForce:
			s.phaseForce()
			s.cursor = curUpdate2
		case curUpdate2:
			s.phaseUpdate2()
			s.cursor = curIdle
			return s.commitStep()
		}
	}
}

// Run advances the simulation by n steps.
func (s *Sim) Run(n int) error { return s.RunContext(context.Background(), n) }

// RunContext advances the simulation by up to n steps, checking ctx
// between steps and — via StepContext — between the phases of each step,
// so cancellation lands within one phase even when a single step is long
// (large N under a tight deadline). A cancelled run may therefore stop
// mid-step; the system's live arrays are then between phases, and the next
// Run/Step call resumes the in-flight step exactly (see MidStep). Callers
// that need a step-boundary view regardless of cancellation timing should
// enable Config.PublishCommits and read Committed. The returned error
// wraps ctx's cancellation cause, so errors.Is(err, context.Canceled) (or
// DeadlineExceeded) identifies an interrupted rather than failed run.
func (s *Sim) RunContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run interrupted at step %d: %w", s.step, err)
		}
		if err := s.StepContext(ctx); err != nil {
			return fmt.Errorf("core: step %d: %w", s.step, err)
		}
	}
	return nil
}

// Committed returns the body system as of the last committed step boundary
// together with that step count. With Config.PublishCommits it is the
// double-buffered copy published by each commit — safe to read while a
// step is in flight (the caller still synchronizes with the commit phase
// itself, e.g. via the session lock in the serving layer). Without
// PublishCommits it is the live system, which is only at a boundary when
// MidStep is false.
func (s *Sim) Committed() (*body.System, int) {
	if s.committed == nil {
		return s.sys, s.step
	}
	return s.committed, s.committedStep
}

// phaseUpdate1 is the opening half-kick plus the drift. It also folds the
// drift into the adaptive-reuse displacement bound and records the
// rebuild-or-reuse decision for this step's structure phase.
func (s *Sim) phaseUpdate1() {
	s.breakdown.Time(metrics.PhaseUpdate, func() {
		integrator.KickHalf(s.rt, s.pol.update, s.sys, s.cfg.DT)
		integrator.Drift(s.rt, s.pol.update, s.sys, s.cfg.DT)
	})
	if s.adaptiveReuse() {
		// Bodies just drifted by dt·v; fold the worst case into the
		// displacement bound before deciding whether the structure is
		// still fit to reuse.
		s.driftAcc += s.cfg.DT * s.maxSpeed()
	}
	s.pendingRebuild = s.needRebuild()
}

// phaseUpdate2 is the closing half-kick.
func (s *Sim) phaseUpdate2() {
	s.breakdown.Time(metrics.PhaseUpdate, func() {
		integrator.KickHalf(s.rt, s.pol.update, s.sys, s.cfg.DT)
	})
}

// commitStep closes the step: counters, periodic validation, and — with
// PublishCommits — the publish copy into the committed double buffer.
func (s *Sim) commitStep() error {
	s.step++
	s.breakdown.AddStep()

	if k := s.cfg.ValidateEvery; k > 0 && s.step%k == 0 {
		if err := s.sys.Validate(); err != nil {
			return fmt.Errorf("core: state invalid after step %d (timestep too large or softening too small?): %w", s.step, err)
		}
	}
	if s.committed != nil {
		s.committed.CopyFrom(s.sys)
		s.committedStep = s.step
	}
	return nil
}

// tree is the solver seam: the one place where the algorithm and the
// layout are chosen. New picks the octree or the BVH behind it (nil for the
// all-pairs baselines), and the structure and force phases call it without
// asking which.
type tree interface {
	// rebuild sorts, builds and computes moments over the bodies in box,
	// timing each sub-phase the tree has: the octree records no sort
	// phase and the BVH no multipoles phase.
	rebuild(s *Sim, box bounds.AABB) error
	// refit keeps the structure and refreshes it for the moved bodies.
	refit(s *Sim)
	// force writes the accelerations, and φ into phi unless it is nil.
	force(s *Sim, phi []float64)
}

// octreeSolver is the Concurrent Octree behind the seam. Its refit keeps
// the topology and recomputes the centres of mass.
type octreeSolver struct{ t *octree.Tree }

func (o octreeSolver) rebuild(s *Sim, box bounds.AABB) error {
	var err error
	s.breakdown.Time(metrics.PhaseBuild, func() { err = o.t.Build(s.rt, s.sys, box) })
	if err != nil {
		return err
	}
	s.breakdown.Time(metrics.PhaseMultipoles, func() { o.t.ComputeMoments(s.rt, s.sys) })
	return nil
}

func (o octreeSolver) refit(s *Sim) { o.t.ComputeMoments(s.rt, s.sys) }

func (o octreeSolver) force(s *Sim, phi []float64) {
	if s.cfg.Layout == LayoutFlat {
		walk.Accelerations(s.rt, s.pol.force, o.t.View(s.cfg.Octree.GroupSize), s.sys, s.cfg.Params, phi)
	} else {
		o.t.Accelerations(s.rt, s.pol.force, s.sys, s.cfg.Params, phi)
	}
}

// bvhSolver is the Hilbert BVH behind the seam. Its refit recomputes boxes
// and moments from the current positions (exact); only the leaves' curve
// order goes stale until the next rebuild.
type bvhSolver struct{ t *bvh.Tree }

func (b bvhSolver) rebuild(s *Sim, box bounds.AABB) error {
	s.breakdown.Time(metrics.PhaseSort, func() { b.t.Sort(s.rt, s.pol.sync, s.sys, box) })
	s.breakdown.Time(metrics.PhaseBuild, func() { b.refit(s) })
	return nil
}

func (b bvhSolver) refit(s *Sim) { b.t.BuildNoSort(s.rt, s.pol.sync, s.sys) }

func (b bvhSolver) force(s *Sim, phi []float64) {
	if s.cfg.Layout == LayoutFlat {
		walk.Accelerations(s.rt, s.pol.force, b.t.View(s.cfg.BVH.GroupBodies), s.sys, s.cfg.Params, phi)
	} else {
		b.t.Accelerations(s.rt, s.pol.force, s.sys, s.cfg.Params, phi)
	}
}

// phaseStructure refreshes the spatial structure for the coming force
// pass, recording per-phase timings. rebuild selects a full rebuild
// (bounds → sort → build → moments) versus the tree-reuse fast path, a
// single refit pass timed on its own so breakdowns show what reuse costs.
func (s *Sim) phaseStructure(rebuild bool) error {
	if s.tree == nil {
		return nil
	}
	if !rebuild {
		s.breakdown.Time(metrics.PhaseRefit, func() { s.tree.refit(s) })
		s.refits++
		return nil
	}
	var box bounds.AABB
	s.breakdown.Time(metrics.PhaseBoundingBox, func() {
		box = bounds.OfPositions(s.rt, s.pol.reduce, s.sys.PosX, s.sys.PosY, s.sys.PosZ)
	})
	if err := s.tree.rebuild(s, box); err != nil {
		return err
	}
	s.noteRebuild(box.MaxExtent())
	s.rebuilds++
	return nil
}

// phaseForce refreshes s.sys.Acc from the current structure (or directly,
// for the all-pairs baselines), recording the force-phase timing.
func (s *Sim) phaseForce() {
	phi := s.phi
	if s.cfg.Algorithm != AllPairsCol && len(phi) != s.sys.N() {
		phi = make([]float64, s.sys.N())
		s.phi = phi
	}
	s.breakdown.Time(metrics.PhaseForce, func() {
		switch {
		case s.tree != nil:
			s.tree.force(s, phi)
		case s.cfg.Algorithm == AllPairs:
			allpairs.AllPairsPhi(s.rt, s.pol.force, s.sys, s.cfg.Params, phi)
		default:
			// Pair-parallel accumulation synchronizes through atomics
			// and therefore runs under par (the paper's requirement).
			allpairs.AllPairsCol(s.rt, s.pol.sync, s.sys, s.cfg.Params)
		}
	})
}

// Diagnostics are conservation quantities for validating a run.
type Diagnostics struct {
	Mass          float64
	Momentum      vec.V3
	KineticEnergy float64
	Potential     float64
	TotalEnergy   float64
}

// Diagnostics computes conservation diagnostics. When exact is true the
// potential is the O(N²) pairwise sum, the independent oracle. Otherwise it
// is ½·Σ mᵢφᵢ over the potentials the last force pass wrote beside the
// accelerations: an O(N) reduce at the solver's own θ and layout, with no
// tree walk and no build. KDK evaluates forces at each step's final
// positions, so between steps those potentials describe the system as it
// stands. Before the first step the sample runs that step's initial
// structure and force phases, which the step then skips, so a run's
// trajectory does not depend on whether or how often it is sampled. Mid-step
// (a cancelled run stopped between phases) and under AllPairsCol, whose
// pair scatter writes no potentials, the sample is the pairwise sum.
func (s *Sim) Diagnostics(exact bool) Diagnostics {
	d := Diagnostics{
		Mass:          s.sys.TotalMass(),
		Momentum:      s.sys.Momentum(),
		KineticEnergy: s.sys.KineticEnergy(),
	}
	d.Potential = s.potentialEnergy(exact)
	d.TotalEnergy = d.KineticEnergy + d.Potential
	return d
}

// initForces runs the first step's init-structure and init-force phases
// ahead of it and leaves the cursor idle: the step then finds haveAcc set
// and opens with its half-kick, exactly as after running them itself.
func (s *Sim) initForces() error {
	err := s.advance(nil, curUpdate1)
	s.cursor = curIdle
	return err
}

// potentialEnergy computes total gravitational potential energy.
func (s *Sim) potentialEnergy(exact bool) float64 {
	if !exact && s.cfg.Algorithm != AllPairsCol && s.cursor == curIdle {
		var err error
		if !s.haveAcc {
			// A failed build (node pool exhausted after every growth
			// attempt) is pathological; the first step reports it, the
			// sample falls back.
			err = s.initForces()
		}
		if err == nil {
			var u float64
			mass := s.sys.Mass
			for i, phi := range s.phi {
				u += 0.5 * mass[i] * phi
			}
			return u
		}
	}
	return allpairs.PotentialEnergy(s.rt, s.pol.sync, s.sys, s.cfg.Params)
}
