package mmbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
// capacityBytes of encoded responses (RunEntry.Body; LRU-evicted beyond
// that). Its model store has the fixed workloads.StoreBudget.
func NewCachedRunner(capacityBytes int64) *CachedRunner {
	return &CachedRunner{
		cache:  resultcache.New(capacityBytes),
		models: workloads.NewStore(workloads.StoreBudget),
	}
}

// RunResponse is the answer to one run: the POST /v1/run body of the
// serve layer. StageLatencyMs is the measured per-stage wall time, eager
// runs only; it is kept outside the report, whose bytes never depend on
// a clock.
type RunResponse struct {
	Report         *Report            `json:"report"`
	StageLatencyMs map[string]float64 `json:"stage_latency_ms,omitempty"`
}

// RunEntry is a result-cache entry: the response plus its encoding, made
// once when the entry is produced, so serving the entry again writes
// bytes instead of encoding a report. The stage latencies cached with
// the report are those of the execution that produced the entry; a hit
// returns them as measured then. Entries are shared: callers must not
// mutate them.
type RunEntry struct {
	RunResponse
	// Body is RunResponse as indented JSON (two-space indent, trailing
	// newline); its length is the entry's charge against the cache budget.
	Body []byte
}

// ErrUnencodable marks an execution whose response has no JSON encoding
// (a NaN or infinite float in the report). It is an execution failure:
// the entry is never cached, and the next identical request executes
// again.
var ErrUnencodable = errors.New("mmbench: run response is not encodable as JSON")

// newRunEntry encodes resp into the entry that serves it.
func newRunEntry(resp RunResponse) (*RunEntry, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnencodable, err)
	}
	return &RunEntry{RunResponse: resp, Body: buf.Bytes()}, nil
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
// Every eager execution returns the stage walls its forward timed, so
// every real run — sweeps included — feeds the runner's per-stage
// latency histograms. It is the ExecFn behind Run and RunCtx,
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
// admissions and ErrUnencodable) are never cached and never shared with
// coalesced waiters.
func (cr *CachedRunner) RunProfiledCtxThrough(ctx context.Context, cfg RunConfig, exec ExecFn) (*Report, map[string]float64, error) {
	e, err := cr.entry(ctx, cfg.cacheKey(), cfg, exec)
	if err != nil {
		return nil, nil, err
	}
	return e.Report, e.StageLatencyMs, nil
}

// EntryThrough is RunProfiledCtxThrough for a config canonicalised once
// by the caller (see RunConfig.Keyed), returning the whole cache entry:
// a hit is a lookup, and its Body is ready to write.
func (cr *CachedRunner) EntryThrough(ctx context.Context, kc KeyedConfig, exec ExecFn) (*RunEntry, error) {
	return cr.entry(ctx, kc.key, kc.RunConfig, exec)
}

// entry looks key up, producing the entry from exec(cfg) on a miss.
func (cr *CachedRunner) entry(ctx context.Context, key string, cfg RunConfig, exec ExecFn) (*RunEntry, error) {
	v, err := cr.cache.Do(key, func() (any, int64, error) {
		rep, stageMs, err := exec(ctx, cfg)
		if err != nil {
			return nil, 0, err
		}
		e, err := newRunEntry(RunResponse{Report: rep, StageLatencyMs: stageMs})
		if err != nil {
			return nil, 0, err
		}
		return e, int64(len(e.Body)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*RunEntry), nil
}

// Stats snapshots the cache counters (hits, misses, executions,
// coalesced requests, evictions, resident bytes).
func (cr *CachedRunner) Stats() resultcache.Stats { return cr.cache.Stats() }

// ModelStats snapshots the model store's counters: hits are eager
// executions served by a resident model, executions are builds, bytes
// the resident footprint (parameters plus the GEMM panels the models
// keep, the latter also reported alone as packed bytes).
func (cr *CachedRunner) ModelStats() workloads.StoreStats { return cr.models.Stats() }

// KeyedConfig is a RunConfig with its canonical identity — the result
// cache key and the Fingerprint — derived by one canonicalisation pass,
// for a caller that needs both (the serve layer quarantines by
// fingerprint, then looks the key up). Build one with RunConfig.Keyed.
type KeyedConfig struct {
	RunConfig
	key, fingerprint string
}

// Keyed canonicalises cfg once into its cache key and fingerprint.
func (cfg RunConfig) Keyed() KeyedConfig {
	key, fp, _ := cfg.canonical()
	return KeyedConfig{RunConfig: cfg, key: key, fingerprint: fp}
}

// Fingerprint is RunConfig.Fingerprint, read from the canonicalisation
// that built kc.
func (kc KeyedConfig) Fingerprint() string { return kc.fingerprint }

// cacheKey canonicalizes the config: defaults are resolved first so
// that, e.g., an empty Device and an explicit "2080ti" share one cache
// entry, and the seed is ignored unless eager mode actually uses it.
func (cfg RunConfig) cacheKey() string {
	key, _, _ := cfg.canonical()
	return key
}

// Fingerprint canonicalizes the config's workload identity — the cache
// key minus the seed — so failure tracking (the serve layer's panic
// quarantine) groups every run of one workload configuration together
// regardless of which data seed happened to trigger the fault.
func (cfg RunConfig) Fingerprint() string {
	_, fp, _ := cfg.canonical()
	return fp
}

// BatchFingerprint canonicalizes the config's *batchable* identity: the
// fingerprint minus batch size (and seed). Two eager configs with equal
// batch fingerprints may execute as one merged cross-request forward —
// everything that shapes the computation graph or its numerics
// (workload, variant, device, scale flavour, precision policy) matches;
// only the data (seed) and the sample count differ, which is exactly
// what RunMergedProfiled concatenates over.
func (cfg RunConfig) BatchFingerprint() string {
	_, _, bfp := cfg.canonical()
	return bfp
}

// canonical writes cfg's cache key in one pass and returns it with the
// fingerprint (the key without its seed field) and the batch fingerprint
// (the fingerprint without its batch field). The key is the string
// resultcache.Key makes of the same fields: they are written in the
// order Key sorts them to — batch, device, eager, paper, precision (for
// a policy other than all-f32), seed, variant, workload — and each value
// escaped as Key escapes it. Both fingerprints are slices of one string.
func (cfg RunConfig) canonical() (key, fingerprint, batchFingerprint string) {
	norm := cfg.withDefaults()
	if !norm.Eager {
		norm.Seed = 0
	} else if norm.Seed == 0 {
		norm.Seed = data.DefaultSeed
	}
	// Precision changes results (numerics in eager mode, modeled kernel
	// costs in analytic mode), so non-trivial policies key the cache by
	// their canonical form. All spellings of all-f32 — empty, "f32", or
	// explicit f32 assignments — share the pre-mixed-precision key.
	// Unparseable policies never execute (Run rejects them); they get a
	// unique key so the error is not cached under f32.
	var policy string
	pol, err := precision.ParsePolicy(norm.Precision)
	keyPolicy := err != nil || !pol.AllF32()
	if err != nil {
		policy = "invalid:" + norm.Precision
	} else if keyPolicy {
		policy = pol.String()
	}
	var num [20]byte
	var b strings.Builder
	// The key, then the fingerprint after it, in one buffer.
	b.Grow(2 * (96 + len(norm.Workload) + len(norm.Variant) + len(norm.Device) + len(policy)))
	b.WriteString("batch=")
	b.Write(strconv.AppendInt(num[:0], int64(norm.BatchSize), 10))
	b.WriteByte(';')
	batchEnd := b.Len()
	writeField(&b, "device", norm.Device)
	writeField(&b, "eager", strconv.FormatBool(norm.Eager))
	writeField(&b, "paper", strconv.FormatBool(norm.PaperScale))
	if keyPolicy {
		writeField(&b, "precision", policy)
	}
	seedStart := b.Len()
	b.WriteString("seed=")
	b.Write(strconv.AppendInt(num[:0], norm.Seed, 10))
	b.WriteByte(';')
	seedEnd := b.Len()
	writeField(&b, "variant", norm.Variant)
	b.WriteString("workload=")
	writeEscaped(&b, norm.Workload)
	n := b.Len()
	b.WriteString(b.String()[:seedStart])
	b.WriteString(b.String()[seedEnd:n])
	all := b.String()
	return all[:n], all[n:], all[n+batchEnd:]
}

// writeField writes name=value; with value escaped as resultcache.Key
// escapes it.
func writeField(b *strings.Builder, name, value string) {
	b.WriteString(name)
	b.WriteByte('=')
	writeEscaped(b, value)
	b.WriteByte(';')
}

// writeEscaped writes s with resultcache.Key's escapes: a backslash
// before each '=', ';' and backslash.
func writeEscaped(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '=', ';', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
}
