// Pipelined stepping: the phase-graph execution path (DESIGN.md §14).
//
// RunPipelined decomposes each step into tasks — update1 (half-kick +
// drift), structure (bounds/sort/build/moments, or a single collapsed
// refit on tree-reuse steps), force, and commit (closing half-kick +
// step bookkeeping) — and submits them to an exec.Executor with their
// input/output contract declared as typed keys over the simulation's
// resources (position/velocity/acceleration arrays, spatial structure,
// committed snapshot). The executor's hazard inference serializes the
// tasks of one simulation into the kick-drift-kick chain (which is what
// makes the pipelined trajectory bit-exact against the synchronous path:
// the same kernels run in the same order on the same state), while tasks
// of different simulations interleave freely on the shared worker pool —
// a long force pass in one session no longer blocks another session's
// cheap update from starting.
//
// Steps ahead of the committed frontier are submitted eagerly (a small
// lookahead window), so the moment one phase task retires its successor is
// already in the ready queue and the pool never waits on the driver.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nbody/internal/exec"
)

// pipelineWindow is how many steps past the oldest uncommitted step the
// driver keeps submitted. The intra-simulation chain is serial, so the
// window buys queue priming (no driver round-trip between phases), not
// intra-session parallelism; a small constant bounds in-flight tasks per
// run at 4·pipelineWindow.
const pipelineWindow = 2

// PipelineOpts parameterizes RunPipelined.
type PipelineOpts struct {
	// Exec is the shared phase-task executor (required).
	Exec *exec.Executor
	// Lock, when non-nil, is held around each phase task's simulation
	// work. Readers that take the same lock (session info, snapshot
	// downloads, checkpoints) then interleave with a running simulation
	// at phase granularity instead of waiting out whole steps.
	Lock sync.Locker
	// OnCommit, when non-nil, runs inside the commit task after each step
	// commits, with the committed step count — after Lock is released, so
	// the callback may itself lock (record trajectories, emit watch
	// events, checkpoint). Returning an error aborts the run; tasks of
	// later steps already submitted complete fail-fast with that error.
	OnCommit func(step int) error
}

// RunPipelined advances the simulation by up to n committed steps through
// the phase-graph executor, returning how many steps committed. A step in
// flight when a previous run was cancelled is resumed (and counted) first.
// ctx is checked between phase tasks: on cancellation the run stops within
// one phase, possibly mid-step, exactly like a cancelled RunContext — and
// the two paths resume each other's in-flight steps interchangeably. The
// executor may be shared by many simulations; RunPipelined returns only
// when every task it submitted has finished, so the simulation is never
// touched by the pool after return.
func (s *Sim) RunPipelined(ctx context.Context, n int, o PipelineOpts) (int, error) {
	if o.Exec == nil {
		return 0, errors.New("core: RunPipelined requires an executor")
	}
	if n <= 0 {
		return 0, nil
	}
	lock, unlock := func() {}, func() {}
	if o.Lock != nil {
		lock, unlock = o.Lock.Lock, o.Lock.Unlock
	}

	// Keys scope this simulation's resources; distinct simulations use
	// distinct domains and never conflict on the executor.
	dom := fmt.Sprintf("sim:%p", s)
	kPos := exec.Key{Domain: dom, Res: "pos"}
	kVel := exec.Key{Domain: dom, Res: "vel"}
	kAcc := exec.Key{Domain: dom, Res: "acc"}
	kStruct := exec.Key{Domain: dom, Res: "struct"}
	kCommit := exec.Key{Domain: dom, Res: "commit"}

	// Each task advances the shared phase cursor to the next task's
	// phase; the hazard chain guarantees the cursor is exactly where the
	// task expects it.
	advanceTask := func(stop stepPhase) func(context.Context) error {
		return func(context.Context) error {
			lock()
			defer unlock()
			return s.advance(nil, stop)
		}
	}
	commitTask := func(context.Context) error {
		lock()
		err := s.advance(nil, curIdle)
		step := s.step
		unlock()
		if err != nil {
			return err
		}
		if o.OnCommit != nil {
			return o.OnCommit(step)
		}
		return nil
	}

	// submit enqueues the phase tasks of one step and returns the commit
	// handle. The first step may be a resumption of an in-flight step: a
	// single task finishing whatever phases remain (refit decisions and
	// half-kicks already taken stay taken — resume, never redo).
	structured := s.tree != nil
	resume := s.MidStep()
	submit := func(label string) *exec.Handle {
		if resume {
			resume = false
			return o.Exec.Submit(ctx, &exec.Task{
				Label: label + " resume", Phase: "resume",
				Reads:  []exec.Key{kPos, kVel, kAcc, kStruct},
				Writes: []exec.Key{kPos, kVel, kAcc, kStruct, kCommit},
				Run:    commitTask,
			})
		}
		// update1 drifts positions as soon as the previous step's forces
		// are in — this is the earliest the next step can start.
		o.Exec.Submit(ctx, &exec.Task{
			Label: label + " update1", Phase: "update",
			Reads:  []exec.Key{kAcc},
			Writes: []exec.Key{kPos, kVel},
			Run:    advanceTask(curStructure),
		})
		if structured {
			// Rebuild steps permute body order (the Hilbert sort), so
			// the structure phase writes every per-body array, not just
			// the tree.
			o.Exec.Submit(ctx, &exec.Task{
				Label: label + " structure", Phase: "structure",
				Reads:  []exec.Key{kPos},
				Writes: []exec.Key{kStruct, kPos, kVel, kAcc},
				Run:    advanceTask(curForce),
			})
		}
		o.Exec.Submit(ctx, &exec.Task{
			Label: label + " force", Phase: "force",
			Reads:  []exec.Key{kPos, kStruct},
			Writes: []exec.Key{kAcc},
			Run:    advanceTask(curUpdate2),
		})
		return o.Exec.Submit(ctx, &exec.Task{
			Label: label + " commit", Phase: "commit",
			Reads:  []exec.Key{kPos, kAcc},
			Writes: []exec.Key{kVel, kCommit},
			Run:    commitTask,
		})
	}

	commits := make([]*exec.Handle, 0, n)
	var firstErr error
	for i := 0; i < n; i++ {
		commits = append(commits, submit(fmt.Sprintf("%s step %d", dom, i)))
		if i >= pipelineWindow {
			if err := commits[i-pipelineWindow].Err(); err != nil {
				firstErr = err
				break
			}
		}
	}

	// Drain every submitted commit (their tasks fail fast once one step
	// errors), then count the committed prefix.
	completed := 0
	for _, h := range commits {
		if err := h.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		completed++
	}
	if firstErr != nil {
		for _, h := range commits {
			<-h.Done()
		}
		return completed, firstErr
	}
	return completed, nil
}
