// Scenario packs: named workload presets submittable by name on
// POST /v1/sessions and POST /v1/jobs, so clients stop uploading megabyte
// snapshots (or memorizing generator names and physics constants) for
// standard runs. A pack bundles a workload generator name, a default body
// count, and a preset physics Config; the request's `scenario` object picks
// the pack and may override n and seed, while the request's own `config`
// object still wins field-wise over the pack's preset.
//
// Resolution precedence, lowest to highest:
//
//	defaults ← scenario pack preset ← config object
//
// Packs reference generators by their workload.ByName string rather than by
// function value so this package stays import-cycle-free with the engine
// (core's in-package tests import workload; this package imports core).
package simcfg

import (
	"errors"
	"fmt"
	"sort"
)

// Scenario is the `scenario` object of a create request or job spec: a pack
// name plus optional overrides of the pack's body count and seed.
type Scenario struct {
	// Name selects the pack; see Packs.
	Name string `json:"name"`
	// N overrides the pack's default body count when > 0.
	N int `json:"n,omitempty"`
	// Seed seeds the deterministic generator (0 is a valid seed; packs
	// have no per-pack default, so the zero value is simply seed 0).
	Seed uint64 `json:"seed,omitempty"`
}

// Pack is a named scenario preset: which generator to run, how many bodies
// by default, and the physics configuration the scenario is tuned for.
type Pack struct {
	// Name is the submittable identifier.
	Name string
	// Description is one human-readable line for docs and listings.
	Description string
	// Workload is the workload.ByName generator name.
	Workload string
	// DefaultN is the body count when the request's scenario.n is absent.
	DefaultN int
	// Config is the preset physics configuration, merged beneath the
	// request's own config object. Nil means pack defaults = service
	// defaults (plus DT, which every pack must pin — scenarios must run
	// without any further physics input).
	Config *Config
}

// packs is the registry, keyed by name. Every pack pins DT so a bare
// {"scenario": {"name": ...}} request is complete.
var packs = map[string]Pack{
	"plummer": {
		Name:        "plummer",
		Description: "standard Plummer-sphere cluster in N-body units",
		Workload:    "plummer",
		DefaultN:    10_000,
		Config:      &Config{DT: 1e-3},
	},
	"solar-system": {
		Name:        "solar-system",
		Description: "synthetic main-belt orbits around a dominant central mass (the paper's validation shape)",
		Workload:    "solarsystem",
		DefaultN:    20_000,
		// The validation scenario needs the exact Newtonian law: an
		// explicit zero softening, the case the pointer fields exist for.
		Config: &Config{DT: 1e-3, Eps: f64(0), Theta: f64(0.3)},
	},
	"galaxy-merger": {
		Name:        "galaxy-merger",
		Description: "two-disk galaxy collision with tidal structure (the paper's evaluation workload)",
		Workload:    "galaxy",
		DefaultN:    50_000,
		Config:      &Config{DT: 1e-3},
	},
	"tsne-embedding": {
		Name:        "tsne-embedding",
		Description: "planar Gaussian-mixture point cloud shaped like a t-SNE/graph-layout embedding",
		Workload:    "embedding",
		DefaultN:    30_000,
		// Layout solvers want softened short-range forces and a loose
		// opening angle — visual quality, not orbital accuracy.
		Config: &Config{DT: 1e-2, Eps: f64(0.05), Theta: f64(0.8)},
	},
}

// f64 pins a float64 literal into a Config pointer field.
func f64(v float64) *float64 { return &v }

// Packs returns every registered pack sorted by name.
func Packs() []Pack {
	out := make([]Pack, 0, len(packs))
	for _, p := range packs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PackByName looks up a pack. The error names the known packs so a typo'd
// request gets a self-serve message.
func PackByName(name string) (Pack, error) {
	if p, ok := packs[name]; ok {
		return p, nil
	}
	names := make([]string, 0, len(packs))
	for n := range packs {
		names = append(names, n)
	}
	sort.Strings(names)
	return Pack{}, invalid("scenario.name", "unknown scenario %q (have %v)", name, names)
}

// Spec says what to simulate: a generator (workload, n, seed) or a scenario
// pack, plus the physics config. It is the shared half of the POST
// /v1/sessions body and the POST /v1/jobs body, which both embed it, so the
// session and job paths resolve a request through the same code.
type Spec struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`

	// Scenario, when set, names a scenario pack in place of raw
	// workload/n/seed: the pack supplies the generator, a default body
	// count and a preset physics config merged beneath Config. Mutually
	// exclusive with Workload/N/Seed (the pack owns those).
	Scenario *Scenario `json:"scenario,omitempty"`

	// Config is the physics configuration (snake_case object, explicit
	// zeros honoured).
	Config *Config `json:"config,omitempty"`
}

// ErrScenarioExclusive reports a spec that names a scenario pack and also
// spells workload/n/seed at the top level — a pack and explicit generator
// parameters disagreeing silently is exactly the ambiguity packs exist to
// remove.
var ErrScenarioExclusive = errors.New("scenario and top-level workload/n/seed are mutually exclusive (use scenario.n and scenario.seed)")

// Resolve expands a scenario pack into Workload/N/Seed in place (scenario.n
// and scenario.seed override the pack), merges defaults ← pack preset ←
// Config, validates the result and returns it with Scenario stamped.
// Errors are ErrScenarioExclusive or *InvalidError. A spec resolves once:
// the expanded form trips the exclusion check if resolved again.
func (s *Spec) Resolve() (Effective, error) {
	cfg, name := s.Config, ""
	if sc := s.Scenario; sc != nil {
		if s.Workload != "" || s.N != 0 || s.Seed != 0 {
			return Effective{}, ErrScenarioExclusive
		}
		if sc.Name == "" {
			return Effective{}, invalid("scenario.name", "must not be empty")
		}
		p, err := PackByName(sc.Name)
		if err != nil {
			return Effective{}, err
		}
		if sc.N < 0 {
			return Effective{}, invalid("scenario.n", "%d must be >= 0", sc.N)
		}
		s.Workload, s.N, s.Seed = p.Workload, sc.N, sc.Seed
		if s.N == 0 {
			s.N = p.DefaultN
		}
		cfg, name = MergeConfig(p.Config, s.Config), sc.Name
	}
	e, err := resolve(cfg)
	e.Scenario = name
	return e, err
}

// MergeConfig layers over on top of base field-wise: set fields of over win
// (including explicit zeros via pointers), absent fields fall through to
// base. Both inputs are left untouched; the result is a fresh Config (nil
// only when both inputs are nil).
func MergeConfig(base, over *Config) *Config {
	if base == nil && over == nil {
		return nil
	}
	out := Config{}
	if base != nil {
		out = *base
	}
	if over == nil {
		return &out
	}
	if over.Algorithm != "" {
		out.Algorithm = over.Algorithm
	}
	if over.Layout != "" {
		out.Layout = over.Layout
	}
	if over.DT != 0 {
		out.DT = over.DT
	}
	if over.Theta != nil {
		out.Theta = over.Theta
	}
	if over.Eps != nil {
		out.Eps = over.Eps
	}
	if over.G != nil {
		out.G = over.G
	}
	if over.Sequential != nil {
		out.Sequential = over.Sequential
	}
	if over.TreeReuse != nil {
		out.TreeReuse = over.TreeReuse
	}
	if over.Pipeline != nil {
		out.Pipeline = over.Pipeline
	}
	return &out
}

// String implements fmt.Stringer for log lines.
func (s *Scenario) String() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%s(n=%d,seed=%d)", s.Name, s.N, s.Seed)
}
