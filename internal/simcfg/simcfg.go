// Package simcfg defines the /v1 simulation-spec surface: the Spec (generator
// or scenario pack, plus the snake_case `config` object) clients send on
// POST /v1/sessions and POST /v1/jobs, the fully resolved `config` echoed
// back in session and job descriptions, and the one place a Spec is
// resolved into it.
//
// Config uses pointer fields for exactly the parameters where zero is
// meaningful, so absent and zero are distinct: eps=0 is the exact Newtonian
// law the Section V-A solar-system validation requires, not "use the
// default".
//
// Resolution precedence: Config fields win over a scenario pack's preset,
// which wins over the defaults. Validation failures are reported as
// *InvalidError carrying the offending field's JSON path; the HTTP layer
// maps them onto the stable "invalid_config" error code.
package simcfg

import (
	"fmt"
	"math"

	"nbody/internal/core"
	"nbody/internal/grav"
)

// InvalidError reports a config field that failed validation. Field is the
// JSON path inside the config object ("dt", "tree_reuse.refit_threshold").
type InvalidError struct {
	Field string
	Msg   string
}

// Error implements error.
func (e *InvalidError) Error() string { return fmt.Sprintf("config field %q: %s", e.Field, e.Msg) }

// invalid builds an *InvalidError.
func invalid(field, format string, args ...any) error {
	return &InvalidError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// TreeReuse is the tree-reuse sub-object: how often the spatial structure
// is rebuilt from scratch versus refit in place.
type TreeReuse struct {
	// RebuildEvery rebuilds the structure every k steps (0 selects 1 =
	// every step). With RefitThreshold set it becomes a hard cadence cap.
	RebuildEvery int `json:"rebuild_every"`
	// RefitThreshold, when > 0, enables adaptive displacement-driven
	// reuse: the structure is refit in place until accumulated drift
	// exceeds this fraction of the root box extent. See
	// core.Config.RefitThreshold.
	RefitThreshold float64 `json:"refit_threshold"`
}

// Config is the `config` object of a Spec. Every field but DT is optional;
// absent fields inherit the scenario pack's preset and then the service
// defaults. Pointer fields distinguish an explicit zero (eps: 0 =
// unsoftened) from absence.
type Config struct {
	// Algorithm is the force solver: the name of one of
	// core.Algorithms() (default "octree").
	Algorithm string `json:"algorithm,omitempty"`
	// Layout is the force-evaluation data path: "flat" (default,
	// interaction lists) or "walk" (per-body tree walks).
	Layout string `json:"layout,omitempty"`
	// DT is the integration timestep. Required here or from a scenario
	// pack; must be positive and finite.
	DT float64 `json:"dt,omitempty"`
	// Theta is the Barnes-Hut opening threshold (default 0.5; 0 forces
	// exact evaluation).
	Theta *float64 `json:"theta,omitempty"`
	// Eps is the Plummer softening length (default 1e-3; 0 is the exact
	// Newtonian law).
	Eps *float64 `json:"eps,omitempty"`
	// G is the gravitational constant (default 1).
	G *float64 `json:"g,omitempty"`
	// Sequential replaces every execution policy with seq.
	Sequential *bool `json:"sequential,omitempty"`
	// TreeReuse configures structure rebuild cadence and adaptive refit.
	TreeReuse *TreeReuse `json:"tree_reuse,omitempty"`
	// Pipeline schedules this session's steps as phase tasks on the
	// shared phase-graph executor (default off = whole-step slots). The
	// trajectory is bit-exact either way; the knob trades strict
	// whole-step slot scheduling for phase-granular interleaving across
	// sessions. See DESIGN.md §14.
	Pipeline *bool `json:"pipeline,omitempty"`
}

// Effective is a fully resolved configuration — every default applied,
// every field explicit. Sessions and jobs echo it so clients see exactly
// what the simulation runs with, regardless of how the request spelled it.
type Effective struct {
	Algorithm  string    `json:"algorithm"`
	Layout     string    `json:"layout"`
	DT         float64   `json:"dt"`
	Theta      float64   `json:"theta"`
	Eps        float64   `json:"eps"`
	G          float64   `json:"g"`
	Sequential bool      `json:"sequential"`
	TreeReuse  TreeReuse `json:"tree_reuse"`
	Pipeline   bool      `json:"pipeline"`
	// Scenario is the scenario-pack name the session or job was created
	// from, empty when created from raw workload/n/seed or a snapshot.
	// It is an echo, not an input: Spec.Resolve stamps it; EffectiveOf
	// cannot recover it from a core config, so the serving layer copies it
	// over after building the engine.
	Scenario string `json:"scenario,omitempty"`
}

// Legacy is the field-less remnant of the retired flat physics fields.
type Legacy struct{}

// Resolve is resolve with an ignored first argument: the expression
// bench/workloads.go:97 compiles against, and nothing else calls it.
func Resolve(_ Legacy, cfg *Config) (Effective, error) { return resolve(cfg) }

// Defaults returns the service's effective configuration before any
// request input: octree, flat layout, the paper's physics defaults,
// rebuild every step. DT has no default — it is the one required field.
func Defaults() Effective {
	p := grav.DefaultParams()
	return Effective{
		Algorithm:  core.Octree.String(),
		Layout:     core.LayoutFlat.String(),
		Theta:      p.Theta,
		Eps:        p.Eps,
		G:          p.G,
		TreeReuse:  TreeReuse{RebuildEvery: 1},
		Sequential: false,
	}
}

// resolve merges the config object over the defaults (set fields override,
// including explicit zeros), validates the result and returns it fully
// resolved. Validation failures are *InvalidError values naming the
// offending field.
func resolve(cfg *Config) (Effective, error) {
	e := Defaults()
	if cfg != nil {
		if cfg.Algorithm != "" {
			e.Algorithm = cfg.Algorithm
		}
		if cfg.Layout != "" {
			e.Layout = cfg.Layout
		}
		if cfg.DT != 0 {
			e.DT = cfg.DT
		}
		if cfg.Theta != nil {
			e.Theta = *cfg.Theta
		}
		if cfg.Eps != nil {
			e.Eps = *cfg.Eps
		}
		if cfg.G != nil {
			e.G = *cfg.G
		}
		if cfg.Sequential != nil {
			e.Sequential = *cfg.Sequential
		}
		if tr := cfg.TreeReuse; tr != nil {
			if tr.RebuildEvery != 0 {
				e.TreeReuse.RebuildEvery = tr.RebuildEvery
			}
			e.TreeReuse.RefitThreshold = tr.RefitThreshold
		}
		if cfg.Pipeline != nil {
			e.Pipeline = *cfg.Pipeline
		}
	}

	return e, e.validate()
}

// validate checks a resolved configuration, reporting the first offending
// field as *InvalidError.
func (e Effective) validate() error {
	if _, err := e.algorithm(); err != nil {
		return err
	}
	if _, err := core.ParseLayout(e.Layout); err != nil {
		return invalid("layout", "unknown layout %q (want flat or walk)", e.Layout)
	}
	if !(e.DT > 0) || math.IsInf(e.DT, 0) {
		return invalid("dt", "timestep %v must be positive and finite", e.DT)
	}
	p := grav.Params{G: e.G, Eps: e.Eps, Theta: e.Theta}
	if err := p.Validate(); err != nil {
		switch {
		case math.IsNaN(e.G) || math.IsInf(e.G, 0):
			return invalid("g", "%v must be finite", e.G)
		case e.Eps < 0 || math.IsNaN(e.Eps) || math.IsInf(e.Eps, 0):
			return invalid("eps", "softening %v must be finite and non-negative", e.Eps)
		default:
			return invalid("theta", "opening threshold %v must be finite and non-negative", e.Theta)
		}
	}
	if e.TreeReuse.RebuildEvery < 0 {
		return invalid("tree_reuse.rebuild_every", "%d must be >= 0", e.TreeReuse.RebuildEvery)
	}
	rt := e.TreeReuse.RefitThreshold
	if rt < 0 || math.IsNaN(rt) || math.IsInf(rt, 0) {
		return invalid("tree_reuse.refit_threshold", "%v must be finite and non-negative", rt)
	}
	return nil
}

// algorithm parses e.Algorithm, reporting an unknown (or retired) name as
// *InvalidError listing the live ones.
func (e Effective) algorithm() (core.Algorithm, error) {
	alg, err := core.ParseAlgorithm(e.Algorithm)
	if err != nil {
		return 0, invalid("algorithm", "unknown algorithm %q (want one of %s)", e.Algorithm, core.AlgorithmNames())
	}
	return alg, nil
}

// CoreConfig converts a resolved configuration into the engine's config
// (Runtime and ValidateEvery are the caller's concern).
func (e Effective) CoreConfig() (core.Config, error) {
	alg, err := e.algorithm()
	if err != nil {
		return core.Config{}, err
	}
	lay, err := core.ParseLayout(e.Layout)
	if err != nil {
		return core.Config{}, invalid("layout", "unknown layout %q", e.Layout)
	}
	return core.Config{
		Algorithm:      alg,
		Layout:         lay,
		Params:         grav.Params{G: e.G, Eps: e.Eps, Theta: e.Theta},
		DT:             e.DT,
		Sequential:     e.Sequential,
		RebuildEvery:   e.TreeReuse.RebuildEvery,
		RefitThreshold: e.TreeReuse.RefitThreshold,
		Pipeline:       e.Pipeline,
	}, nil
}

// EffectiveOf reads the resolved configuration back out of an engine
// config (with core.New's defaults applied) — the canonical source of the
// `config` echoed in session descriptions.
func EffectiveOf(cfg core.Config) Effective {
	return Effective{
		Algorithm:  cfg.Algorithm.String(),
		Layout:     cfg.Layout.String(),
		DT:         cfg.DT,
		Theta:      cfg.Params.Theta,
		Eps:        cfg.Params.Eps,
		G:          cfg.Params.G,
		Sequential: cfg.Sequential,
		TreeReuse: TreeReuse{
			RebuildEvery:   cfg.RebuildEvery,
			RefitThreshold: cfg.RefitThreshold,
		},
		Pipeline: cfg.Pipeline,
	}
}
