package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Spans of one step or
// request share Trace; Parent is the span that caused this one (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording costs an append and two clock reads per span.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace ID (1, 2, …); 0 marks spans nobody reads.
func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, trace int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call records f as a child span of parent.
func (t *tracer) call(name string, parent, trace int, f func()) {
	id := t.start(name, parent, trace)
	f()
	t.end(id)
}

// selfMS is a span's own time: its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once and
// a child reaching outside its parent is clipped to it.
func selfMS(spans []span, id int) float64 {
	p := spans[id-1]
	var kids []span
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, p.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return float64(p.End-p.Start-covered) / 1e6
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
