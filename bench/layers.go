package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mmbench"
	"mmbench/internal/batch"
	"mmbench/internal/data"
	"mmbench/internal/device"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/jobs"
	"mmbench/internal/memprof"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
	"mmbench/internal/resultcache"
	"mmbench/internal/serve"
	"mmbench/internal/tensor"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

const (
	// walkConfigs bounds how many distinct configs the layer walk visits,
	// strided evenly through the workload's config list; walkReps is how
	// often it crosses each, the median standing for the config.
	walkConfigs = 8
	walkReps    = 3
	// microReps is the repeat count of the stub-driven layer timings.
	microReps = 200
)

// counters are the published counters the per-layer metrics difference
// across the measured window: /v1/stats for the serve workloads, the
// same packages' snapshot functions for the offline sweep.
type counters struct {
	cache     resultcache.Stats
	batch     batch.Stats
	engine    engine.Stats
	pack      gemm.PackActivity
	shed      int64
	queueWait obs.Summary
}

func shedJobs(r jobs.Resilience) int64 { return r.ShedExpired + r.ShedOverload + r.ShedShutdown }

func snapshot(e *env) (counters, error) {
	if e.pool != nil {
		wait := e.pool.QueueWait()
		return counters{
			engine: engine.TotalStats(), pack: gemm.PackStats(),
			shed: shedJobs(e.pool.Resilience()), queueWait: wait.SummaryMs(),
		}, nil
	}
	st, err := e.tgt.fetchStats()
	if err != nil {
		return counters{}, err
	}
	return counters{
		cache: st.Cache.Stats, batch: st.Batching.Stats, engine: st.Engine.Stats,
		pack: st.Engine.Pack.PackActivity, shed: shedJobs(st.Resilience.Resilience), queueWait: st.Queue.WaitMs,
	}, nil
}

// series collects named samples.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// timed runs fn inside a span named after the metric (less its _ms) and
// adds its duration in ms to s.
func timed(rec *recorder, parent, request int, s series, name string, fn func()) {
	id := rec.start(parent, request, strings.TrimSuffix(name, "_ms"))
	t0 := time.Now()
	fn()
	s.add(name, float64(time.Since(t0))/float64(time.Millisecond))
	rec.finish(id)
}

// perCall times n calls of fn in groups of inner and returns the median
// time per call in the unit given (time.Microsecond, time.Millisecond).
func perCall(n, inner int, unit time.Duration, fn func()) float64 {
	var xs []float64
	for i := 0; i < n; i += inner {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t0))/float64(inner)/float64(unit))
	}
	return median(xs)
}

// layerValues derives the per-layer metrics of a traced run: counter
// deltas over the measured window, stub-driven timings of the serving
// layers, and the layer walk over the workload's configs.
func layerValues(o options, m *measured, e2e map[string]float64) (map[string]float64, error) {
	nOps := float64(len(m.col.samples))
	latP50 := e2e["lat_p50_ms"]
	b, a := m.before, m.after
	v := map[string]float64{
		"serve.resp_bytes": ratio(float64(m.col.respBytes), nOps),
		"serve.shed":       float64(m.col.shed),

		"resultcache.hit_ratio": ratio(float64(a.cache.Hits-b.cache.Hits),
			float64(a.cache.Hits-b.cache.Hits+a.cache.Misses-b.cache.Misses)),
		"resultcache.executions": float64(a.cache.Executions - b.cache.Executions),
		"resultcache.evictions":  float64(a.cache.Evictions - b.cache.Evictions),

		"batch.coalesce_ratio": ratio(float64(a.batch.MergedRequests-b.batch.MergedRequests),
			float64(a.batch.MergedBatches-b.batch.MergedBatches)),
		"batch.merged_forwards": float64(a.batch.MergedBatches - b.batch.MergedBatches),
		"batch.max_merged":      float64(maxMerged(b.batch, a.batch)),

		// Percentiles cannot be differenced: these cover the pool's whole
		// life, warm-up included.
		"jobs.queue_wait_p50_ms": a.queueWait.P50,
		"jobs.queue_wait_p95_ms": a.queueWait.P95,
		"jobs.shed":              float64(a.shed - b.shed),

		"engine.tasks_per_op": ratio(float64(a.engine.Tasks-b.engine.Tasks), nOps),
		"engine.pool_hit_ratio": ratio(float64(a.engine.PoolHits-b.engine.PoolHits),
			float64(a.engine.PoolHits-b.engine.PoolHits+a.engine.PoolMisses-b.engine.PoolMisses)),
		"engine.pool_outstanding": float64(engine.TotalStats().PoolOutstanding),

		"gemm.pack_mb_per_op": ratio(float64(a.pack.PanelBytes-b.pack.PanelBytes)/1e6, nOps),
		"gemm.pack_hit_ratio": ratio(float64(a.pack.PanelPoolHits-b.pack.PanelPoolHits),
			float64(a.pack.PanelCheckouts-b.pack.PanelCheckouts)),

		"loadgen.sent":          nOps,
		"loadgen.samples_per_s": e2e["samples_per_s"],

		"runtime.gc_per_op":      ratio(float64(m.use.gcs), nOps),
		"runtime.gc_pause_ms":    float64(m.use.gcPause) / float64(time.Millisecond),
		"runtime.peak_rss_mb":    peakRSSMB(),
		"runtime.goroutines_end": float64(runtime.NumGoroutine()),
	}
	for _, stage := range mmnet.Stages() {
		v["mmnet."+stage+"_ms"] = median(m.col.stageMs[stage])
	}

	// End-to-end quantities too unsteady to carry a bound.
	if p95, ok := e2e["lat_p95_ms"]; ok {
		v["loadgen.lat_p95_ms"] = p95
	}
	var lags, traced, untraced []float64
	var failed float64
	for _, s := range m.col.samples {
		if !s.ok {
			failed++
		}
		lags = append(lags, float64(s.lag)/float64(time.Millisecond))
		if s.traced {
			traced = append(traced, float64(s.lat))
		} else {
			untraced = append(untraced, float64(s.lat))
		}
	}
	sort.Float64s(lags)
	v["loadgen.lag_p95_ms"], _ = quantile(lags, 0.95)
	// Every other request of the traced run records spans, so the two
	// halves saw the same system: their median latencies differ by what
	// recording costs.
	v["loadgen.trace_overhead_ratio"] = ratio(median(traced), median(untraced))
	v["loadgen.fail_ratio"] = ratio(failed, nOps)

	v["batch.serial_wait_p50_ms"] = median(serialWaits(m.col.samples))

	if err := serveLayers(v); err != nil {
		return nil, err
	}
	if err := walk(o.w, m.rec, v); err != nil {
		return nil, err
	}

	// The outside-in budget: the workload's median latency against the
	// sum of the layers a request of it crosses, remainder explicit.
	var sum float64
	var terms []string
	for _, name := range o.w.budget {
		sum += v[name]
		terms = append(terms, fmt.Sprintf("%s %.3f", name, v[name]))
	}
	v["unattributed_ms"] = latP50 - sum
	fmt.Printf("budget: lat_p50_ms %.3f = %s + unattributed_ms %.3f (%.1f%%)\n",
		latP50, strings.Join(terms, " + "), latP50-sum, 100*ratio(latP50-sum, latP50))

	fmt.Println("span self time (median ms, count):")
	self := selfTimes(m.rec.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := make([]float64, len(self[name]))
		for i, d := range self[name] {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		fmt.Printf("  %-24s %12.4f %8d\n", name, median(ms), len(ms))
	}
	return v, nil
}

// maxMerged is the largest request count a merged execution of the
// window carried, read off the batch-size histogram's delta (the
// MaxMerged gauge would include warm-up).
func maxMerged(before, after batch.Stats) int {
	largest := 0
	for size, count := range after.BatchSizes {
		if count > before.BatchSizes[size] {
			largest = max(largest, size)
		}
	}
	return largest
}

// serialWaits estimates from outside how long each eager request waited
// behind its predecessor: the batcher runs the batches of one
// fingerprint one after another, so the part of a request's time in the
// system during which an earlier request of its fingerprint was still in
// flight is time it spent queued. Values are in ms.
func serialWaits(samples []sample) []float64 {
	byFP := make(map[int][]sample)
	for _, s := range samples {
		if s.fp >= 0 {
			byFP[s.fp] = append(byFP[s.fp], s)
		}
	}
	var waits []float64
	for _, group := range byFP {
		sort.Slice(group, func(i, j int) bool { return group[i].end.Before(group[j].end) })
		for i, s := range group {
			var wait time.Duration
			if i > 0 {
				sent := s.end.Add(-(s.lat - s.lag))
				wait = max(0, group[i-1].end.Sub(sent))
			}
			waits = append(waits, float64(wait)/float64(time.Millisecond))
		}
	}
	return waits
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// serveLayers times the serving layers one by one, each through its
// public entry point with the layers below it stubbed out, on a server
// of its own so the measured window's counters stay untouched.
func serveLayers(v map[string]float64) error {
	cfg := mmbench.RunConfig{Workload: "avmnist", PaperScale: true}
	rep, err := mmbench.Run(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()

	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	tgt := &target{url: ts.URL, client: ts.Client()}
	defer func() {
		ts.Close()
		_ = srv.Close(ctx) // nothing in flight
	}()
	body, err := runRequestBody(cfg)
	if err != nil {
		return err
	}
	if err := tgt.prime(cfg); err != nil {
		return fmt.Errorf("priming the layer server: %w", err)
	}
	tcp := perCall(microReps, 1, time.Millisecond, func() { _, _, _ = tgt.post(body) })
	direct := perCall(microReps, 1, time.Millisecond, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	})
	v["serve.handler_hit_ms"] = direct
	v["serve.transport_ms"] = tcp - direct
	v["serve.fingerprint_us"] = perCall(10*microReps, 10, time.Microsecond, func() { _ = cfg.Fingerprint() })

	runner := mmbench.NewCachedRunner(64 << 20)
	if _, err := runner.RunCtx(ctx, cfg); err != nil {
		return err
	}
	v["resultcache.hit_us"] = perCall(10*microReps, 10, time.Microsecond, func() { _, _ = runner.RunCtx(ctx, cfg) })
	stub := func(context.Context, mmbench.RunConfig) (*mmbench.Report, map[string]float64, error) {
		return rep, nil, nil
	}
	fresh := cfg
	fresh.Eager = true
	v["resultcache.miss_overhead_us"] = perCall(microReps, 1, time.Microsecond, func() {
		fresh.Seed++ // a new cache key each call: insert plus size estimate
		_, _, _ = runner.RunProfiledCtxThrough(ctx, fresh, stub)
	})

	b := batch.New(batch.Options{Run: func(_ context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
		return make([]*mmbench.Report, len(cfgs)), nil, nil
	}})
	v["batch.lone_wait_ms"] = perCall(microReps/10, 1, time.Millisecond, func() { _, _, _ = b.Do(ctx, fresh, time.Time{}, 0) })

	pool := jobs.NewPool(1, 1)
	v["jobs.dispatch_us"] = perCall(microReps, 1, time.Microsecond, func() {
		if job, err := pool.SubmitCtx(ctx, jobs.SubmitOptions{}, func(context.Context) (any, error) { return nil, nil }); err == nil {
			<-job.Done()
		}
	})
	return pool.Shutdown(ctx)
}

// walk crosses the layers below the cache in the order a request does,
// once per selected config, timing each call from outside and recording
// it as a span under core.run. Metrics are the mean over configs of each
// config's median; names that do not apply to a config's mode (no
// forward in an analytic run) contribute nothing and read 0.
func walk(w *workload, rec *recorder, v map[string]float64) error {
	stride := max(1, len(w.configs)/walkConfigs)
	across := series{}
	for i := 0; i < len(w.configs); i += stride {
		s, err := walkConfig(rec, -1-i, w.configs[i])
		if err != nil {
			return fmt.Errorf("layer walk of %+v: %w", w.configs[i], err)
		}
		for name, xs := range s {
			across.add(name, median(xs))
		}
	}
	for _, name := range []string{
		"core.run_ms", "core.analytic_run_ms", "core.self_ms", "core.merged4_per_member_ms",
		"workloads.build_ms", "workloads.build_alloc_mb", "workloads.param_mb",
		"data.batch_ms", "data.concat4_ms",
		"plan.compile_ms", "plan.replay_ms", "plan.kernels_per_op", "plan.gflop_per_op", "plan.kernel_mb_per_op",
		"mmnet.forward_ms", "mmnet.forward_seq_ms", "gemm.achieved_gflops", "trace.finish_ms",
	} {
		v[name] = mean(across[name])
	}

	// The same config at f16 and at f32: what a low-precision policy
	// costs in host time (an eager f16 run also pays the f32 reference).
	lowp, full := w.configs[0], w.configs[0]
	lowp.Precision, full.Precision = "f16", "f32"
	lowp.Seed, full.Seed = warmupSeed(0), warmupSeed(0)
	run := func(cfg mmbench.RunConfig) float64 {
		return perCall(walkReps, 1, time.Millisecond, func() { _, _ = mmbench.Run(cfg) })
	}
	v["precision.lowp_run_ratio"] = ratio(run(lowp), run(full))
	return nil
}

// walker is the layer walk of one config: what it crosses, where it
// records spans, and the samples it has gathered.
type walker struct {
	rec     *recorder
	request int
	cfg     mmbench.RunConfig
	dev     *device.Profile
	pol     precision.Policy
	s       series
}

// walkConfig walks one config walkReps times. Each repetition times the
// real entry point, then mirrors core.Run call for call, so that the
// former minus the walked children is the runner's own time.
func walkConfig(rec *recorder, request int, cfg mmbench.RunConfig) (series, error) {
	w := &walker{rec: rec, request: request, cfg: cfg, s: series{}}
	var err error
	if w.dev, err = device.ByName(cmp.Or(cfg.Device, "2080ti")); err != nil {
		return nil, err
	}
	if w.pol, err = precision.ParsePolicy(cfg.Precision); err != nil {
		return nil, err
	}
	if cfg.Variant == "" {
		info, err := workloads.Get(cfg.Workload)
		if err != nil {
			return nil, err
		}
		w.cfg.Variant = info.Fusions[0]
	}
	w.cfg.Seed = warmupSeed(0)

	var p *plan.Plan
	for r := 0; r < walkReps; r++ {
		t0 := time.Now()
		if cfg.Eager {
			_, _, err = mmbench.RunProfiledCtx(context.Background(), w.cfg)
		} else {
			_, err = mmbench.Run(w.cfg)
		}
		if err != nil {
			return nil, err
		}
		whole := float64(time.Since(t0)) / float64(time.Millisecond)
		if cfg.Eager {
			w.s.add("core.run_ms", whole)
		} else {
			w.s.add("core.analytic_run_ms", whole)
		}

		var n *mmnet.Network
		var children float64
		if n, p, children, err = w.requestPath(); err != nil {
			return nil, err
		}
		w.s.add("core.self_ms", whole-children)
		if cfg.Eager {
			if p, err = w.offPath(n); err != nil {
				return nil, err
			}
		}
	}

	// Work counts of one op, summed from the compiled plan's kernel
	// specs: computed, not measured, so a perf-only change leaves them be.
	var kernels, flops, kbytes int64
	for _, node := range p.Nodes {
		kernels += int64(node.Kernels)
		flops += node.FLOPs
		kbytes += node.KernelBytes
	}
	w.s.add("plan.kernels_per_op", float64(kernels))
	w.s.add("plan.gflop_per_op", float64(flops)/1e9)
	w.s.add("plan.kernel_mb_per_op", float64(kbytes)/1e6)
	if fwd := median(w.s["mmnet.forward_ms"]); fwd > 0 {
		w.s.add("gemm.achieved_gflops", float64(flops)/1e9/(fwd/1e3))
	}
	return w.s, nil
}

// step times one layer call and returns its duration in ms. With a
// parent it is recorded as that span's child; off the request path
// (parent 0) it leaves no span.
func (w *walker) step(parent int, name string, fn func()) float64 {
	rec := w.rec
	if parent == 0 {
		rec = nil
	}
	timed(rec, parent, w.request, w.s, name, fn)
	xs := w.s[name]
	return xs[len(xs)-1]
}

// requestPath crosses the layers in the order core.Run does, under one
// core.run span, and returns the built network, the compiled plan of an
// analytic config, and the summed time of the children.
func (w *walker) requestPath() (n *mmnet.Network, p *plan.Plan, children float64, err error) {
	cfg := w.cfg
	root := w.rec.start(0, w.request, "core.run")
	defer func() { w.rec.finish(root) }()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	children += w.step(root, "workloads.build_ms", func() {
		n, err = workloads.Build(cfg.Workload, cfg.Variant, cfg.PaperScale, 42)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	runtime.ReadMemStats(&m1)
	w.s.add("workloads.build_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	w.s.add("workloads.param_mb", float64(n.ParamBytes())/1e6)

	builder := trace.NewBuilder(w.dev, n.Modalities)
	if cfg.Eager {
		var in *data.Batch
		var out *ops.Var
		children += w.step(root, "plan.prologue_ms", func() { err = plan.Prologue(builder, n, cfg.BatchSize) })
		if err != nil {
			return nil, nil, 0, err
		}
		children += w.step(root, "data.batch_ms", func() { in = n.Gen.Batch(tensor.NewRNG(cfg.Seed), cfg.BatchSize) })
		children += w.step(root, "mmnet.forward_ms", func() {
			out = n.Forward(&ops.Ctx{Rec: builder, Precision: w.pol}, in)
		})
		if !w.pol.AllF32() {
			// A low-precision eager run also pays the f32 reference forward.
			children += w.step(root, "mmnet.forward_ref_ms", func() { n.Forward(&ops.Ctx{}, in) })
		}
		plan.Epilogue(builder, out.Value.Bytes())
	} else {
		children += w.step(root, "plan.compile_ms", func() {
			p, err = plan.Compile(n, plan.Options{BatchSize: cfg.BatchSize, Precision: w.pol})
		})
		if err != nil {
			return nil, nil, 0, err
		}
		children += w.step(root, "plan.replay_ms", func() { p.Replay(builder) })
	}
	children += w.step(root, "trace.finish_ms", func() { memprof.Measure(n, builder.Finish(), cfg.BatchSize) })
	return n, p, children, nil
}

// offPath times what an eager request does not cross but could have: the
// plan of its config (also the source of its computed work counts), the
// sequential-branch forward, and a merged forward of four.
func (w *walker) offPath(n *mmnet.Network) (p *plan.Plan, err error) {
	cfg := w.cfg
	w.step(0, "plan.compile_ms", func() {
		p, err = plan.Compile(n, plan.Options{BatchSize: cfg.BatchSize, Precision: w.pol})
	})
	if err != nil {
		return nil, err
	}
	w.step(0, "plan.replay_ms", func() { p.Replay(trace.NewBuilder(w.dev, n.Modalities)) })
	in := n.Gen.Batch(tensor.NewRNG(cfg.Seed), cfg.BatchSize)
	w.step(0, "mmnet.forward_seq_ms", func() {
		n.Forward(&ops.Ctx{Precision: w.pol, SequentialBranches: true}, in)
	})
	w.step(0, "data.concat4_ms", func() { _, err = data.ConcatBatches([]*data.Batch{in, in, in, in}) })
	if err != nil {
		return nil, err
	}
	members := make([]mmbench.RunConfig, 4)
	for i := range members {
		members[i] = cfg
		members[i].Seed = warmupSeed(i)
	}
	t0 := time.Now()
	if _, _, err = mmbench.RunMergedProfiled(context.Background(), members); err != nil {
		return nil, err
	}
	w.s.add("core.merged4_per_member_ms", float64(time.Since(t0))/float64(time.Millisecond)/4)
	return p, nil
}
