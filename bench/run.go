package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mmbench"
	"mmbench/internal/engine"
	"mmbench/internal/jobs"
	"mmbench/internal/resultcache"
	"mmbench/internal/serve"
)

// outDir receives results.json and the span files; the harness runs from
// the repository root and .gitignore keeps this directory out of the tree.
const outDir = "bench/out"

// setupReps is how often an end-to-end run sets up; setup_s is the median.
const setupReps = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the object printed as the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options select one workload run.
type options struct {
	w       *workload
	seed    uint64
	seconds int
	trace   bool
	// short runs a smoke test: one set-up, bounds meaningless.
	short bool
}

// procs is the GOMAXPROCS every workload runs at.
func procs() int { return min(runtime.NumCPU(), 4) }

// env is a set-up system under test: the in-process server behind TCP
// for the serve workloads, the jobs pool for the offline sweep.
type env struct {
	srv  *serve.Server
	ts   *httptest.Server
	tgt  *target
	pool *jobs.Pool
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.pool != nil {
		_ = e.pool.Shutdown(ctx) // only reports that ctx ran out; nothing is in flight
		return
	}
	e.ts.Close()
	e.tgt.client.CloseIdleConnections()
	_ = e.srv.Close(ctx) // as above
}

// setUp brings the system to ready: server defaults (batching on, 2 ms
// window, 64 MiB cache), then the fixed warm-up, which for analytic
// configs is the cache prefill. The sweep warms up with one discarded
// sweep per workload.
func setUp(o options, chk *checker) (*env, error) {
	if o.w.sweeps != nil {
		e := &env{pool: jobs.NewPool(procs(), 4*procs())}
		sweepLoop(o.w.sweeps(o.seed, o.seconds)[:len(sweepWorkloads)], time.Hour, e.pool, chk, nil, &collector{})
		return e, nil
	}
	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	e := &env{srv: srv, ts: ts, tgt: &target{
		url: ts.URL,
		// One generator, no more connections than the server has processors.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs(), MaxIdleConnsPerHost: procs()}},
		chk:    chk,
	}}
	var warm []mmbench.RunConfig
	for _, cfg := range o.w.configs {
		reps := 1
		if cfg.Eager {
			reps = warmupPerConfig
		}
		for r := 0; r < reps; r++ {
			cfg.Seed = warmupSeed(len(warm))
			warm = append(warm, cfg)
		}
	}
	errs := make([]error, closedClients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(warm) && errs[c] == nil; i += closedClients {
				err := e.tgt.prime(warm[i])
				if err != nil {
					errs[c] = fmt.Errorf("warm-up request %d: %w", i, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// measured is everything one workload run observed from outside.
type measured struct {
	col    *collector
	rec    *recorder
	use    usage
	setupS float64
	// before and after bracket the measured window.
	before, after counters
}

// measureWorkload sets the system up, drives the measured window and
// tears the system down again.
func measureWorkload(o options, chk *checker) (*measured, error) {
	reps := setupReps
	if o.short || o.trace {
		reps = 1
	}
	var e *env
	var lists [][]op
	var setups []float64
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if o.w.requests != nil {
			lists = o.w.requests(o.w, o.seed, o.seconds)
		}
		var err error
		if e, err = setUp(o, chk); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	m := &measured{col: &collector{}, setupS: median(setups)}
	if o.trace {
		m.rec = newRecorder()
	}
	window := time.Duration(o.seconds) * time.Second
	var err error
	if m.before, err = snapshot(e); err != nil {
		return nil, err
	}
	var sweepCache resultcache.Stats
	switch {
	case o.w.sweeps != nil:
		list := o.w.sweeps(o.seed, o.seconds)[len(sweepWorkloads):]
		m.use = measure(func() { sweepCache = sweepLoop(list, window, e.pool, chk, m.rec, m.col) })
		if m.use.wall < window {
			chk.fail("sweep list of %d used up; raise sweepsPerSecond", len(list))
		}
	case o.w.open:
		e.tgt.rec, e.tgt.col = m.rec, m.col
		m.use = measure(func() { e.tgt.openLoop(lists[0]) })
		// Arrivals stop before the window does; the offered rate is over
		// the whole window.
		m.use.wall = max(m.use.wall, window)
	default:
		e.tgt.rec, e.tgt.col = m.rec, m.col
		m.use = measure(func() { e.tgt.closedLoop(lists, window) })
	}
	if m.after, err = snapshot(e); err != nil {
		return nil, err
	}
	if o.w.sweeps != nil {
		// Each sweep had its own cache; their counters are the window's.
		m.after.cache = sweepCache
	}
	return m, nil
}

// run executes one workload once and prints every metric it measured.
func run(o options) (*result, error) {
	runtime.GOMAXPROCS(procs())
	// As mmbench serve does: scheduler workers × kernel workers stays
	// within the processor count.
	engine.SetDefaultWorkers(1)

	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	fmt.Printf("== %s  seed=%d seconds=%d trace=%v gomaxprocs=%d\n", o.w.name, o.seed, o.seconds, o.trace, procs())
	m, err := measureWorkload(o, chk)
	if err != nil {
		return nil, err
	}
	done, kept := chk.replay(time.Duration(o.seconds) * time.Second / 5)
	if out := engine.TotalStats().PoolOutstanding; out != 0 {
		chk.fail("engine pool has %d buffers outstanding at quiescence", out)
	}

	res := &result{Attempted: len(m.col.samples), Metrics: make(map[string]metric)}
	for _, s := range m.col.samples {
		if !s.ok {
			res.Failed++
		}
	}
	fmt.Printf("phase measure: sent=%d ok=%d failed=%d fail_ratio=%.4f\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("phase replay: %d of %d kept requests replayed standalone\n", done, kept)

	values, defs := endToEndValues(o.w, m.col.samples, m.use, m.setupS), endToEnd
	if o.trace {
		if values, err = layerValues(o, m, values); err != nil {
			return nil, err
		}
		defs = perLayer
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, o.w.name+".trace.json")
		if err := m.rec.writeTrace(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Printf("%-34s %16s %-10s unsupported by this sample\n", d.name, "-", d.unit)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.6g %-10s n=%d\n", d.name, v, d.unit, res.Attempted)
	}

	for _, note := range chk.notes {
		fmt.Println("FAIL:", note)
	}
	res.Correct = chk.failures == 0 && res.Attempted > 0
	return res, nil
}

// endToEndValues derives the end-to-end metrics from the raw samples of
// the measured window, plus lat_p95_ms and samples_per_s, which a traced
// run reports as per-layer metrics.
func endToEndValues(w *workload, samples []sample, use usage, setupS float64) map[string]float64 {
	var lat []float64
	var good, batchSum int
	for _, s := range samples {
		if !s.ok {
			continue
		}
		lat = append(lat, float64(s.lat)/float64(time.Millisecond))
		batchSum += s.batch
		if s.lat <= w.limit {
			good++
		}
	}
	sort.Float64s(lat)
	wall, ops := use.wall.Seconds(), float64(len(samples))
	v := map[string]float64{
		"setup_s":         setupS,
		"throughput_rps":  ratio(float64(len(lat)), wall),
		"goodput_rps":     ratio(float64(good), wall),
		"samples_per_s":   ratio(float64(batchSum), wall),
		"cpu_s_per_op":    ratio(use.cpu.Seconds(), ops),
		"alloc_mb_per_op": ratio(float64(use.allocated)/1e6, ops),
	}
	if p50, ok := supportedQuantile(lat, 0.50); ok {
		v["lat_p50_ms"] = p50
	}
	if p95, ok := supportedQuantile(lat, 0.95); ok {
		v["lat_p95_ms"] = p95
	}
	return v
}
