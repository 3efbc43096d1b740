package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declaration is BENCHMARK.json: the names, units, directions and bounds
// this program must report and is judged by. It is read at run time so the
// file stays the single place a bound is written down.
type declaration struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the baseline's
// median by which the metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	if d.RunSeconds <= 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return d, fmt.Errorf("%s: run_seconds, end_to_end and per_layer are required", path)
	}
	return d, nil
}
