package client

// Mirror types of the service's physics-configuration surface
// (internal/simcfg). The SDK deliberately re-declares them instead of
// importing server internals so it stays a standalone stdlib-only module
// surface.

// TreeReuseConfig mirrors the `tree_reuse` sub-object: spatial-structure
// rebuild cadence and adaptive in-place refit.
type TreeReuseConfig struct {
	// RebuildEvery rebuilds the structure every k steps (0 = server
	// default of 1). With RefitThreshold set it acts as a hard cadence
	// cap.
	RebuildEvery int `json:"rebuild_every"`
	// RefitThreshold > 0 enables adaptive reuse: the structure is refit
	// in place until accumulated drift exceeds this fraction of the root
	// box extent.
	RefitThreshold float64 `json:"refit_threshold"`
}

// SessionConfig mirrors the `config` object of POST /v1/sessions and
// POST /v1/jobs. Every field is optional; absent fields inherit server
// defaults. Pointer fields distinguish an explicit zero (Eps: Float64(0)
// = unsoftened exact Newtonian gravity) from absence.
type SessionConfig struct {
	// Algorithm is the force solver ("octree", "bvh", "all-pairs", ...).
	Algorithm string `json:"algorithm,omitempty"`
	// Layout is the force-evaluation data path: "flat" (interaction
	// lists, the default) or "walk" (per-body tree walks).
	Layout string `json:"layout,omitempty"`
	// DT is the integration timestep; required here or from a scenario
	// pack.
	DT float64 `json:"dt,omitempty"`
	// Theta is the Barnes-Hut opening threshold.
	Theta *float64 `json:"theta,omitempty"`
	// Eps is the Plummer softening length.
	Eps *float64 `json:"eps,omitempty"`
	// G is the gravitational constant.
	G *float64 `json:"g,omitempty"`
	// Sequential replaces every execution policy with seq.
	Sequential *bool `json:"sequential,omitempty"`
	// TreeReuse configures structure rebuild cadence and adaptive refit.
	TreeReuse *TreeReuseConfig `json:"tree_reuse,omitempty"`
	// Pipeline schedules the session's steps as phase tasks on the
	// server's shared phase-graph executor instead of whole-step slots.
	// Trajectories are bit-exact either way; pipelined sessions
	// interleave with each other at phase granularity under load.
	Pipeline *bool `json:"pipeline,omitempty"`
}

// ScenarioSpec mirrors the `scenario` object of POST /v1/sessions and
// POST /v1/jobs: a named scenario pack (see GET /v1/scenarios) with
// optional body-count and seed overrides. Mutually exclusive with the
// top-level workload/n/seed fields — the pack owns those.
type ScenarioSpec struct {
	// Name is the pack name ("plummer", "solar-system", "galaxy-merger",
	// "tsne-embedding", ...).
	Name string `json:"name"`
	// N overrides the pack's default body count (0 keeps the default).
	N int `json:"n,omitempty"`
	// Seed seeds the pack's workload generator.
	Seed uint64 `json:"seed,omitempty"`
}

// EffectiveConfig mirrors the fully resolved configuration the server
// echoes in session and job descriptions: every default applied, every
// field explicit.
type EffectiveConfig struct {
	Algorithm  string          `json:"algorithm"`
	Layout     string          `json:"layout"`
	DT         float64         `json:"dt"`
	Theta      float64         `json:"theta"`
	Eps        float64         `json:"eps"`
	G          float64         `json:"g"`
	Sequential bool            `json:"sequential"`
	TreeReuse  TreeReuseConfig `json:"tree_reuse"`
	Pipeline   bool            `json:"pipeline"`
	// Scenario echoes the scenario-pack name the session or job was
	// created from ("" for raw workload/n/seed submissions).
	Scenario string `json:"scenario,omitempty"`
}

// Request converts an echoed effective configuration back into a request
// config with every field pinned explicitly, so resubmitting it elsewhere
// (e.g. a drain handoff) reproduces the exact same resolution — including
// values that happen to equal zero.
func (e EffectiveConfig) Request() *SessionConfig {
	tr := e.TreeReuse
	return &SessionConfig{
		Algorithm:  e.Algorithm,
		Layout:     e.Layout,
		DT:         e.DT,
		Theta:      Float64(e.Theta),
		Eps:        Float64(e.Eps),
		G:          Float64(e.G),
		Sequential: Bool(e.Sequential),
		TreeReuse:  &tr,
		Pipeline:   Bool(e.Pipeline),
	}
}

// Float64 returns a pointer to v, for SessionConfig's optional fields.
func Float64(v float64) *float64 { return &v }

// Bool returns a pointer to v, for SessionConfig.Sequential.
func Bool(v bool) *bool { return &v }
