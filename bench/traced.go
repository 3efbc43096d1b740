package main

import "fmt"

// runTraced is the traced pass of one workload. It is a separate run from
// the untraced one — end-to-end metrics are never taken with benchmark
// code between the phases — and reports every per-layer metric: the engine
// layers on the workload's input, the leaf kernels at fixed sizes, and the
// serving layers under the workload's request shape. Spans stay in memory
// until the pass ends.
func runTraced(w spec, o options, rep *report) error {
	tr := newTracer()
	if err := engineLadder(w, o, rep, tr); err != nil {
		return fmt.Errorf("engine ladder: %w", err)
	}
	if err := kernelLadder(o, rep, tr); err != nil {
		return fmt.Errorf("kernel ladder: %w", err)
	}
	if err := serveLadder(w, o, rep, tr); err != nil {
		return fmt.Errorf("serve ladder: %w", err)
	}
	path, err := tr.write(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(rep.out, "# %d spans written to %s\n", len(tr.spans), path)
	return nil
}
