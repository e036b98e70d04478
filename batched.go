package mmbench

import (
	"context"
	"fmt"

	"mmbench/internal/core"
	"mmbench/internal/faultinject"
	"mmbench/internal/obs"
	"mmbench/internal/workloads"
)

// RunMergedProfiled executes several batch-compatible eager configs as
// ONE merged forward pass and returns each config's own Report, in
// order, plus the measured per-stage wall of the merged forward (shared
// by every member — it is the wall-clock the batch actually paid).
//
// Compatibility means equal BatchFingerprint: same workload, variant,
// device, scale flavour and precision policy, all eager. Per-request
// reports are bitwise identical to running each config alone — which is
// this same execution with one member (see core.RunMerged) — so the
// continuous batcher can feed them into the result cache transparently.
func RunMergedProfiled(ctx context.Context, cfgs []RunConfig) ([]*Report, map[string]float64, error) {
	return runMerged(ctx, cfgs, nil)
}

// RunMergedProfiled is the package-level RunMergedProfiled resolving the
// network through the runner's model store — the merged exec the serve
// layer hands its batcher, so merged forwards share models with the
// runner's standalone executions. Each merged forward is one sample of
// the runner's StageLatencies.
func (cr *CachedRunner) RunMergedProfiled(ctx context.Context, cfgs []RunConfig) ([]*Report, map[string]float64, error) {
	reps, stageMs, err := runMerged(ctx, cfgs, cr.models)
	cr.observeStages(stageMs)
	return reps, stageMs, err
}

func runMerged(ctx context.Context, cfgs []RunConfig, models *workloads.Store) ([]*Report, map[string]float64, error) {
	// One merged batch is one runner execution: the runner.run fault site
	// fires once, like a standalone run.
	faultinject.Hit(faultinject.SiteRunner)
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled needs at least one config")
	}
	if !cfgs[0].Eager {
		return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled requires eager configs")
	}
	bfp := cfgs[0].BatchFingerprint()
	for _, cfg := range cfgs[1:] {
		if !cfg.Eager || cfg.BatchFingerprint() != bfp {
			return nil, nil, fmt.Errorf("mmbench: RunMergedProfiled configs are not batch-compatible")
		}
	}
	_, n, opts, err := resolve(cfgs[0], models)
	if err != nil {
		return nil, nil, err
	}
	members := make([]core.MemberSpec, len(cfgs))
	for i, cfg := range cfgs {
		members[i] = core.MemberSpec{BatchSize: cfg.BatchSize, Seed: cfg.Seed}
	}
	// Merged forwards are profiled unconditionally, like every eager
	// execution through the cached runner.
	opts.Eager, opts.Profiler, opts.Ctx = true, obs.NewProfiler(), ctx
	results, err := core.RunMerged(n, opts, members)
	if err != nil {
		return nil, nil, err
	}
	reps := make([]*Report, len(cfgs))
	for i, res := range results {
		reps[i] = buildReport(cfgs[i].withDefaults(), opts.Precision, res)
	}
	return reps, stageMillis(results[0].StageSeconds), nil
}
