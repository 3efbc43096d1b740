package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"nbody/internal/simcfg"
)

func boolPtr(b bool) *bool { return &b }

// snapshotBytes serializes a session through the public snapshot path.
func snapshotBytes(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshot(id, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelinedSessionsBitExact is the serve-level acceptance test for
// pipelined stepping, and under -race the overlap stress: pairs of sessions
// with identical physics — one pipelined, one on the slot path — step
// concurrently across several algorithms, and every pair's snapshot must
// come out byte-identical. The pipelined sessions share the executor, so
// their phase tasks genuinely interleave while this runs.
func TestPipelinedSessionsBitExact(t *testing.T) {
	cfg := testConfig()
	cfg.ExecWorkers = 4
	m := newTestManager(t, cfg)

	const nBodies, nSteps, seed = 128, 8, 21
	cases := []struct {
		name string
		scfg simcfg.Config
	}{
		{"octree", simcfg.Config{Algorithm: "octree", DT: 1e-3}},
		{"bvh-refit", simcfg.Config{Algorithm: "bvh", DT: 1e-3,
			TreeReuse: &simcfg.TreeReuse{RefitThreshold: 0.02}}},
		{"all-pairs", simcfg.Config{Algorithm: "all-pairs", DT: 1e-3}},
	}

	type pair struct{ piped, slot string }
	pairs := make([]pair, len(cases))
	for i, c := range cases {
		pcfg, scfg := c.scfg, c.scfg
		pcfg.Pipeline = boolPtr(true)
		pi, err := m.Create(context.Background(), plummerReq(nBodies, seed, pcfg))
		if err != nil {
			t.Fatal(err)
		}
		if !pi.Config.Pipeline {
			t.Fatalf("%s: pipelined session echoed pipeline=false", c.name)
		}
		si, err := m.Create(context.Background(), plummerReq(nBodies, seed, scfg))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{pi.ID, si.ID}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2*len(pairs))
	for i, p := range pairs {
		for j, id := range []string{p.piped, p.slot} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[2*i+j] = m.Step(context.Background(), id, nSteps)
			}()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent step %d: %v", i, err)
		}
	}

	for i, p := range pairs {
		piped := snapshotBytes(t, m, p.piped)
		slot := snapshotBytes(t, m, p.slot)
		if !bytes.Equal(piped, slot) {
			t.Fatalf("%s: pipelined and slot-path snapshots differ (%d vs %d bytes)",
				cases[i].name, len(piped), len(slot))
		}
	}

	// The pipelined sessions went through the executor: its per-phase
	// counters must account for their commits.
	snap := m.Metrics()
	if snap.Exec == nil {
		t.Fatal("metrics snapshot has no exec section")
	}
	wantCommits := uint64(len(pairs) * nSteps)
	if got := snap.Exec.TasksByPhase["commit"]; got != wantCommits {
		t.Fatalf("exec commit tasks = %d, want %d", got, wantCommits)
	}
	if snap.Exec.Failed != 0 {
		t.Fatalf("exec reported %d failed tasks", snap.Exec.Failed)
	}
}

// TestPipelinedAdmission exercises the pipelined path's admission rules
// deterministically: per-session serialization (ErrConflict) and the
// active-run bound (ErrBusy with a Retry-After hint), without depending on
// run timing.
func TestPipelinedAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.StepSlots = 1
	cfg.MaxQueue = 1 // pipelined bound = StepSlots + MaxQueue = 2
	m := newTestManager(t, cfg)

	ids := make([]*Session, 3)
	for i := range ids {
		info, err := m.Create(context.Background(), plummerReq(32, uint64(i), simcfg.Config{DT: 0.01, Pipeline: boolPtr(true)}))
		if err != nil {
			t.Fatal(err)
		}
		ids[i], err = m.lookup(info.ID)
		if err != nil {
			t.Fatal(err)
		}
	}

	rel0, err := m.admitPipelined(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.admitPipelined(ids[0]); !errors.Is(err, ErrConflict) {
		t.Fatalf("second admit of one session = %v, want ErrConflict", err)
	}
	rel1, err := m.admitPipelined(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.admitPipelined(ids[2])
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-bound admit = %v, want ErrBusy", err)
	}
	var hint retryHint
	if !errors.As(err, &hint) {
		t.Fatalf("shed pipelined run carries no retry hint: %v", err)
	}
	rel1()
	rel2, err := m.admitPipelined(ids[2])
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	rel0()
	if got := m.pipelineActive.Load(); got != 0 {
		t.Fatalf("pipelineActive = %d after all releases", got)
	}
}

// TestPipelinedCancelAndResume: a pipelined step with an already-cancelled
// context makes no progress (its phase tasks are skipped at pickup), the
// session is not quarantined, and a later request completes the run with
// the exact trajectory of an uninterrupted slot-path session.
func TestPipelinedCancelAndResume(t *testing.T) {
	m := newTestManager(t, testConfig())
	const nBodies, nSteps, seed = 64, 6, 5

	mk := func(pipeline bool) string {
		info, err := m.Create(context.Background(), plummerReq(nBodies, seed, simcfg.Config{Algorithm: "octree", DT: 1e-3, Pipeline: boolPtr(pipeline)}))
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	piped, ref := mk(true), mk(false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.Step(ctx, piped, nSteps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipelined step = %v, want context.Canceled", err)
	}
	if info, _ := m.Get(piped); info.State == StateFailed.String() {
		t.Fatalf("cancellation quarantined the session: %+v", info)
	}

	if _, err := m.Step(context.Background(), piped, nSteps-res.Completed); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, err := m.Step(context.Background(), ref, nSteps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, m, piped), snapshotBytes(t, m, ref)) {
		t.Fatal("resumed pipelined trajectory diverged from the reference")
	}
}

// TestPipelinedNaNQuarantine: the pipelined commit callback runs the same
// non-finite watchdog as the slot path, quarantining only the victim.
func TestPipelinedNaNQuarantine(t *testing.T) {
	m := newTestManager(t, testConfig())
	mk := func(seed uint64) string {
		info, err := m.Create(context.Background(), plummerReq(32, seed, simcfg.Config{DT: 0.01, Pipeline: boolPtr(true)}))
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	victim, healthy := mk(1), mk(2)

	s, err := m.lookup(victim)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.sim.System().PosX[0] = math.NaN()
	s.mu.Unlock()

	if _, err := m.Step(context.Background(), victim, 5); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("NaN pipelined step = %v, want ErrSessionFailed", err)
	}
	if in, _ := m.Get(victim); in.State != StateFailed.String() || !strings.Contains(in.FailReason, "non-finite") {
		t.Fatalf("quarantine info %+v", in)
	}
	if _, err := m.Step(context.Background(), healthy, 3); err != nil {
		t.Fatalf("healthy pipelined session after neighbour NaN: %v", err)
	}
}

// TestPipelinedHTTPEndToEnd drives the whole surface over HTTP: create a
// pipelined session via the config object, step it, watch it, download the
// snapshot, and compare byte-for-byte against a slot-path twin. Also checks
// the /v1/metrics exec section is exported.
func TestPipelinedHTTPEndToEnd(t *testing.T) {
	m, srv := newTestServer(t, testConfig())

	create := func(pipeline bool) string {
		body := fmt.Sprintf(`{"workload":"plummer","n":96,"seed":11,"config":{"algorithm":"bvh","dt":0.001,"pipeline":%v}}`, pipeline)
		resp := postJSON(t, srv.URL+"/v1/sessions", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		info := decodeBody[Info](t, resp)
		if info.Config.Pipeline != pipeline {
			t.Fatalf("echoed pipeline=%v, want %v", info.Config.Pipeline, pipeline)
		}
		return info.ID
	}
	piped, slot := create(true), create(false)

	for _, id := range []string{piped, slot} {
		resp := postJSON(t, srv.URL+"/v1/sessions/"+id+"/step", `{"steps":7}`)
		res := decodeBody[StepResult](t, resp)
		if resp.StatusCode != http.StatusOK || res.Completed != 7 {
			t.Fatalf("step %s: status %d result %+v", id, resp.StatusCode, res)
		}
	}

	// Watch the pipelined session: events arrive from the commit callback.
	resp, err := http.Get(srv.URL + "/v1/sessions/" + piped + "/watch?steps=4&every=2")
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev WatchEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("watch decode: %v", err)
		}
		events++
	}
	resp.Body.Close()
	if events != 2 {
		t.Fatalf("watch events = %d, want 2", events)
	}
	// Even up the step counts before comparing.
	if _, err := m.Step(context.Background(), slot, 4); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(snapshotBytes(t, m, piped), snapshotBytes(t, m, slot)) {
		t.Fatal("pipelined and slot-path HTTP sessions diverged")
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ms := decodeBody[MetricsSnapshot](t, mresp)
	if ms.Exec == nil || ms.Exec.Workers <= 0 {
		t.Fatalf("metrics exec section missing or empty: %+v", ms.Exec)
	}
	if ms.Exec.TasksByPhase["commit"] == 0 || ms.Exec.TasksByPhase["force"] == 0 {
		t.Fatalf("exec phase counters empty: %+v", ms.Exec.TasksByPhase)
	}
}
