package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nbody/internal/body"
	"nbody/internal/exec"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/workload"
)

// mustEqualSystems asserts bit-exact equality of every per-body array,
// including body order (both paths run the same deterministic sorts, so
// even the permutations must match).
func mustEqualSystems(t *testing.T, want, got *body.System) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("system sizes differ: %d vs %d", want.N(), got.N())
	}
	check := func(name string, w, g []float64) {
		t.Helper()
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d]: %v != %v (not bit-exact)", name, i, w[i], g[i])
			}
		}
	}
	check("PosX", want.PosX, got.PosX)
	check("PosY", want.PosY, got.PosY)
	check("PosZ", want.PosZ, got.PosZ)
	check("VelX", want.VelX, got.VelX)
	check("VelY", want.VelY, got.VelY)
	check("VelZ", want.VelZ, got.VelZ)
	check("AccX", want.AccX, got.AccX)
	check("AccY", want.AccY, got.AccY)
	check("AccZ", want.AccZ, got.AccZ)
	check("Mass", want.Mass, got.Mass)
	for i := range want.ID {
		if want.ID[i] != got.ID[i] {
			t.Fatalf("ID[%d]: %d != %d (body order diverged)", i, want.ID[i], got.ID[i])
		}
	}
}

// Pipelined execution must reproduce the synchronous trajectory bit for
// bit: same kernels, same order, same state — only the scheduling differs.
// Covered: every algorithm, both layouts, rebuild-every-step, fixed-cadence
// reuse, and adaptive refit.
func TestPipelinedMatchesSynchronous(t *testing.T) {
	const n, steps, seed = 96, 17, 42

	reuses := []struct {
		name           string
		rebuildEvery   int
		refitThreshold float64
	}{
		{"rebuild", 1, 0},
		{"cadence", 3, 0},
		{"refit", 0, 0.02},
	}

	ex := exec.New(4)
	defer ex.Close()

	for _, alg := range Algorithms() {
		for _, layout := range Layouts() {
			for _, reuse := range reuses {
				name := fmt.Sprintf("%s/%s/%s", alg, layout, reuse.name)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Algorithm:      alg,
						DT:             0.001,
						Layout:         layout,
						RebuildEvery:   reuse.rebuildEvery,
						RefitThreshold: reuse.refitThreshold,
						Runtime:        par.NewRuntime(2, par.Dynamic),
						// layout=walk runs the concurrent octree, whose
						// scattered moments add floats in arrival order,
						// so two runs agree only to rounding; gathering
						// sums the eight children in octant order and is
						// reproducible bit for bit. (The flat default is
						// the key-sorted tree, which needs no such help.)
						Octree: octree.Config{GatherMoments: true},
					}

					sync_, err := New(cfg, workload.Plummer(n, seed))
					if err != nil {
						t.Fatal(err)
					}
					if err := sync_.Run(steps); err != nil {
						t.Fatal(err)
					}

					pcfg := cfg
					pcfg.Pipeline = true
					pcfg.PublishCommits = true
					piped, err := New(pcfg, workload.Plummer(n, seed))
					if err != nil {
						t.Fatal(err)
					}
					var mu sync.Mutex
					commits := 0
					done, err := piped.RunPipelined(context.Background(), steps, PipelineOpts{
						Exec: ex,
						Lock: &mu,
						OnCommit: func(step int) error {
							commits++
							if step != commits {
								return fmt.Errorf("commit callback step %d at commit %d", step, commits)
							}
							return nil
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if done != steps || commits != steps || piped.StepCount() != steps {
						t.Fatalf("pipelined run: done=%d commits=%d steps=%d, want %d", done, commits, piped.StepCount(), steps)
					}

					mustEqualSystems(t, sync_.System(), piped.System())
					if sync_.Rebuilds() != piped.Rebuilds() || sync_.Refits() != piped.Refits() {
						t.Fatalf("structure passes diverged: rebuilds %d/%d refits %d/%d",
							sync_.Rebuilds(), piped.Rebuilds(), sync_.Refits(), piped.Refits())
					}

					// The committed double buffer is the step-boundary
					// state — identical to the live arrays once the run
					// has drained.
					committed, cstep := piped.Committed()
					if cstep != steps {
						t.Fatalf("committed step = %d, want %d", cstep, steps)
					}
					mustEqualSystems(t, piped.System(), committed)
				})
			}
		}
	}
}

// A run cancelled mid-step (phase granularity) must resume bit-exactly —
// including across paths: a step started pipelined finishes synchronously
// and vice versa, because both drive the same phase cursor.
func TestPipelinedCancelResumeBitExact(t *testing.T) {
	const n, steps, seed = 64, 9, 7
	cfg := Config{
		Algorithm:      Octree,
		DT:             0.001,
		RefitThreshold: 0.02,
		Runtime:        par.NewRuntime(2, par.Dynamic),
	}

	ref, err := New(cfg, workload.Plummer(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(steps); err != nil {
		t.Fatal(err)
	}

	ex := exec.New(2)
	defer ex.Close()

	sim, err := New(cfg, workload.Plummer(n, seed))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the pipelined run almost immediately: the executor checks
	// the context between phase tasks, so the run stops at a phase
	// boundary — typically mid-step.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var mu sync.Mutex
	done, err := sim.RunPipelined(ctx, steps, PipelineOpts{Exec: ex, Lock: &mu})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipelined run: done=%d err=%v, want context.Canceled", done, err)
	}

	// Interrupt the synchronous path mid-step too, then alternate the
	// two paths to finish the run.
	mid := &cancelAfterN{Context: context.Background(), n: 3}
	if err := sim.RunContext(mid, steps-done); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-step sync cancel: %v", err)
	}
	for sim.StepCount() < steps {
		if sim.StepCount()%2 == 0 {
			got, err := sim.RunPipelined(context.Background(), 1, PipelineOpts{Exec: ex, Lock: &mu})
			if err != nil || got != 1 {
				t.Fatalf("pipelined resume: got=%d err=%v", got, err)
			}
		} else if err := sim.RunContext(context.Background(), 1); err != nil {
			t.Fatalf("sync resume: %v", err)
		}
	}

	mustEqualSystems(t, ref.System(), sim.System())
	if ref.Rebuilds() != sim.Rebuilds() || ref.Refits() != sim.Refits() {
		t.Fatalf("structure passes diverged after resume: rebuilds %d/%d refits %d/%d",
			ref.Rebuilds(), sim.Rebuilds(), ref.Refits(), sim.Refits())
	}
}

// While a step is in flight, Committed must keep returning the last
// step-boundary state, not the torn mid-step arrays.
func TestCommittedIsStepBoundaryState(t *testing.T) {
	cfg := Config{Algorithm: AllPairs, DT: 0.01, PublishCommits: true,
		Runtime: par.NewRuntime(1, par.Dynamic)}
	sim, err := New(cfg, workload.Plummer(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	boundary, bstep := sim.Committed()
	if bstep != 2 {
		t.Fatalf("committed step = %d, want 2", bstep)
	}
	snap := boundary.Clone()

	// Interrupt the third step between phases: live arrays move, the
	// committed buffer must not.
	mid := &cancelAfterN{Context: context.Background(), n: 2}
	if err := sim.StepContext(mid); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-step cancel: %v", err)
	}
	if !sim.MidStep() {
		t.Fatal("expected an in-flight step")
	}
	committed, cstep := sim.Committed()
	if cstep != 2 {
		t.Fatalf("committed step moved to %d during in-flight step", cstep)
	}
	mustEqualSystems(t, snap, committed)
	if committed.PosX[0] == sim.System().PosX[0] {
		t.Fatal("live arrays did not move mid-step; test proves nothing")
	}

	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if _, cstep := sim.Committed(); cstep != 3 {
		t.Fatalf("committed step = %d after resume, want 3", cstep)
	}
}
