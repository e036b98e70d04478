package mmbench

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"

	"mmbench/internal/data"
	"mmbench/internal/obs"
	"mmbench/internal/precision"
	"mmbench/internal/resultcache"
	"mmbench/internal/workloads"
)

// CachedRunner wraps Run with a config-keyed result cache. Analytic
// profiling is a pure function of RunConfig, so equal configs (after
// default resolution) always return the same Report; the runner serves
// repeats from memory and coalesces concurrent identical requests into
// a single underlying execution. Reports handed out by a CachedRunner
// are shared — callers must not mutate them.
//
// Below the result cache sits the runner's model store: every eager
// execution the runner performs (cache misses and eager sweep cells via
// Execute, the batcher's merged forwards via the RunMergedProfiled
// method — below the runner both are core.RunMerged, a standalone
// execution being a batch of one member) resolves its network through
// it, so a served model's weights are drawn once per runner instead of
// once per run. Analytic executions never read a
// weight and build privately, as the package-level Run does. The store
// is the runner's own — it is created with the runner and collected
// with it; nothing is shared between runners. So are the per-stage
// latency histograms its eager executions feed (StageLatencies).
type CachedRunner struct {
	cache  *resultcache.Cache
	models *workloads.Store

	stagesMu sync.Mutex
	stages   map[string]*obs.Histogram // wall seconds, keyed by stage
}

// NewCachedRunner builds a runner whose cache holds about
// capacityBytes of reports (LRU-evicted beyond that). Its model store
// has the fixed workloads.StoreBudget.
func NewCachedRunner(capacityBytes int64) *CachedRunner {
	return &CachedRunner{
		cache:  resultcache.New(capacityBytes),
		models: workloads.NewStore(workloads.StoreBudget),
	}
}

// cachedRun is a cache entry: the report plus the per-stage wall-clock
// milliseconds measured when the entry was produced (nil for analytic
// runs). Caching them together keeps profiled and unprofiled callers on
// one cache key — profiling is a pure observer, so it never forks entries.
type cachedRun struct {
	rep     *Report
	stageMs map[string]float64
}

// Run is the cached equivalent of the package-level Run.
func (cr *CachedRunner) Run(cfg RunConfig) (*Report, error) {
	return cr.RunCtx(nil, cfg)
}

// RunCtx is Run under a cancellable context. A cancelled execution
// returns ctx.Err() and is never cached: the failure belongs to the
// cancelled request, and concurrent requests coalesced onto it retry
// with their own context instead of inheriting the error.
func (cr *CachedRunner) RunCtx(ctx context.Context, cfg RunConfig) (*Report, error) {
	rep, _, err := cr.RunProfiledCtxThrough(ctx, cfg, cr.Execute)
	return rep, err
}

// Execute is the runner's own uncached execution of cfg: the
// package-level RunProfiledCtx resolving eager networks through the
// runner's model store. An eager execution is the one-config case of
// RunMergedProfiled's merged forward, so the two agree by construction.
// Eager executions are profiled unconditionally (the profiler is a pure
// observer), so every real run — sweeps included — feeds the runner's
// per-stage latency histograms. It is the ExecFn behind Run and RunCtx,
// and what an execution wrapper (the serve layer's scheduler admission)
// reschedules.
func (cr *CachedRunner) Execute(ctx context.Context, cfg RunConfig) (*Report, map[string]float64, error) {
	rep, stageMs, err := runProfiled(ctx, cfg, cr.models)
	cr.observeStages(stageMs)
	return rep, stageMs, err
}

// observeStages records one execution's per-stage wall milliseconds. An
// analytic or failed execution has no stage map and returns before
// taking the lock.
func (cr *CachedRunner) observeStages(stageMs map[string]float64) {
	if stageMs == nil {
		return
	}
	cr.stagesMu.Lock()
	defer cr.stagesMu.Unlock()
	if cr.stages == nil {
		cr.stages = make(map[string]*obs.Histogram)
	}
	for stage, ms := range stageMs {
		h := cr.stages[stage]
		if h == nil {
			h = new(obs.Histogram)
			cr.stages[stage] = h
		}
		h.Observe(ms / 1e3)
	}
}

// StageLatencies snapshots the wall-time histograms (seconds), keyed by
// stage, of every eager execution this runner performed: one sample per
// Execute and per merged forward of RunMergedProfiled, however many
// members it carried; cache hits never count. The map and its histograms
// are copies, safe to read without further locking.
func (cr *CachedRunner) StageLatencies() map[string]obs.Histogram {
	cr.stagesMu.Lock()
	defer cr.stagesMu.Unlock()
	out := make(map[string]obs.Histogram, len(cr.stages))
	for stage, h := range cr.stages {
		out[stage] = *h
	}
	return out
}

// ExecFn is the computation of one cache-missing run; the cache entry
// comes from its result. The runner's own is Execute. The serve layer
// substitutes a wrapper that routes Execute through scheduler admission,
// or hands the miss to the continuous batcher, which may merge it with
// other pending misses into one forward; the scattered per-request report
// then lands in the cache exactly as a standalone execution's would (the
// bitwise-identity contract makes the two indistinguishable).
type ExecFn func(ctx context.Context, cfg RunConfig) (*Report, map[string]float64, error)

// RunProfiledCtxThrough returns cfg's report and measured per-stage
// milliseconds from the cache, computing them with exec on a miss. Cache
// hits and coalesced identical requests never invoke exec — repeated or
// concurrent identical requests cost one admission and one execution no
// matter how many clients ask — so the layering is: identical configs
// coalesce in the cache ABOVE the batcher, and distinct-but-compatible
// configs merge in the batcher BELOW it. Hits return the stage latencies
// measured when the entry was executed. Errors (including shed
// admissions) are never cached and never shared with coalesced waiters.
func (cr *CachedRunner) RunProfiledCtxThrough(ctx context.Context, cfg RunConfig, exec ExecFn) (*Report, map[string]float64, error) {
	v, err := cr.cache.Do(cfg.cacheKey(), func() (any, int64, error) {
		rep, stageMs, err := exec(ctx, cfg)
		if err != nil {
			return nil, 0, err
		}
		cv := &cachedRun{rep: rep, stageMs: stageMs}
		return cv, reportBytes(rep), nil
	})
	if err != nil {
		return nil, nil, err
	}
	cv := v.(*cachedRun)
	return cv.rep, cv.stageMs, nil
}

// Stats snapshots the cache counters (hits, misses, executions,
// coalesced requests, evictions, resident bytes).
func (cr *CachedRunner) Stats() resultcache.Stats { return cr.cache.Stats() }

// ModelStats snapshots the model store's counters: hits are eager
// executions served by a resident model, executions are builds, bytes
// the resident footprint (parameters plus the GEMM panels the models
// keep, the latter also reported alone as packed bytes).
func (cr *CachedRunner) ModelStats() workloads.StoreStats { return cr.models.Stats() }

// reportBytes estimates a report's resident size for the cache budget
// by its JSON encoding — close enough for an LRU byte budget.
func reportBytes(r *Report) int64 {
	b, err := json.Marshal(r)
	if err != nil {
		return 1 << 10
	}
	return int64(len(b))
}

// cacheKey canonicalizes the config: defaults are resolved first so
// that, e.g., an empty Device and an explicit "2080ti" share one cache
// entry, and the seed is ignored unless eager mode actually uses it.
func (cfg RunConfig) cacheKey() string {
	return resultcache.Key(cfg.canonicalFields(true))
}

// Fingerprint canonicalizes the config's workload identity — the cache
// key minus the seed — so failure tracking (the serve layer's panic
// quarantine) groups every run of one workload configuration together
// regardless of which data seed happened to trigger the fault.
func (cfg RunConfig) Fingerprint() string {
	return resultcache.Key(cfg.canonicalFields(false))
}

// BatchFingerprint canonicalizes the config's *batchable* identity: the
// fingerprint minus batch size (and seed). Two eager configs with equal
// batch fingerprints may execute as one merged cross-request forward —
// everything that shapes the computation graph or its numerics
// (workload, variant, device, scale flavour, precision policy) matches;
// only the data (seed) and the sample count differ, which is exactly
// what RunMergedProfiled concatenates over.
func (cfg RunConfig) BatchFingerprint() string {
	m := cfg.canonicalFields(false)
	delete(m, "batch")
	return resultcache.Key(m)
}

func (cfg RunConfig) canonicalFields(includeSeed bool) map[string]string {
	norm := cfg.withDefaults()
	if !norm.Eager {
		norm.Seed = 0
	} else if norm.Seed == 0 {
		norm.Seed = data.DefaultSeed
	}
	m := map[string]string{
		"workload": norm.Workload,
		"variant":  norm.Variant,
		"device":   norm.Device,
		"batch":    strconv.Itoa(norm.BatchSize),
		"paper":    strconv.FormatBool(norm.PaperScale),
		"eager":    strconv.FormatBool(norm.Eager),
	}
	if includeSeed {
		m["seed"] = strconv.FormatInt(norm.Seed, 10)
	}
	// Precision changes results (numerics in eager mode, modeled kernel
	// costs in analytic mode), so non-trivial policies key the cache by
	// their canonical form. All spellings of all-f32 — empty, "f32", or
	// explicit f32 assignments — share the pre-mixed-precision key.
	if pol, err := precision.ParsePolicy(norm.Precision); err == nil && !pol.AllF32() {
		m["precision"] = pol.String()
	} else if err != nil {
		// Unparseable policies never execute (Run rejects them); give
		// them a unique key so the error is not cached under f32.
		m["precision"] = "invalid:" + norm.Precision
	}
	return m
}
