package core

import (
	"context"
	"fmt"
	"runtime"

	"mmbench/internal/device"
	"mmbench/internal/jobs"
)

// profileCfg identifies one analytic profile run: a workload's
// paper-scale variant on a device at a batch size.
type profileCfg struct {
	workload, variant string
	dev               *device.Profile
	batch             int
}

// profileGrid profiles every cell of a figure's grid in analytic mode,
// each as its own BuildAndRun, on a worker pool the call creates and
// shuts down before returning. Results come back in grid order; a failing
// cell fails the grid with its index, after every other cell finished.
// Nothing outlives the call: each cell builds a private network, and the
// only grids that repeat a (workload, variant) pair are avmnist's, whose
// builds cost a few milliseconds.
func profileGrid(grid []profileCfg) ([]*RunResult, error) {
	workers := min(runtime.GOMAXPROCS(0), len(grid))
	p := jobs.NewPool(workers, workers)
	// Shutdown under a context that never expires cannot fail.
	defer p.Shutdown(context.Background())
	fns := make([]jobs.Fn, len(grid))
	for i, c := range grid {
		fns[i] = func() (any, error) {
			r, err := BuildAndRun(c.workload, c.variant, true, RunOptions{Device: c.dev, BatchSize: c.batch})
			if err != nil {
				return nil, fmt.Errorf("profiling %s/%s on %s at batch %d: %w", c.workload, c.variant, c.dev.Name, c.batch, err)
			}
			return r, nil
		}
	}
	out, err := p.Map(fns)
	if err != nil {
		return nil, err
	}
	rs := make([]*RunResult, len(out))
	for i, v := range out {
		rs[i] = v.(*RunResult)
	}
	return rs, nil
}
