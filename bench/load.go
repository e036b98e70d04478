package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mmbench"
	"mmbench/internal/jobs"
	"mmbench/internal/resultcache"
	"mmbench/internal/serve"
)

// sample is one completed op of the measured window.
type sample struct {
	// lat runs from when the request was due (open loop) or sent (closed
	// loop) to its last body byte; lag is how late an open-loop send ran.
	lat, lag time.Duration
	// end is when the last body byte arrived; fp identifies the batch
	// fingerprint of an eager request (-1 for analytic ops, which never
	// reach the batcher).
	end    time.Time
	fp     int
	ok     bool
	batch  int
	traced bool
}

// collector gathers samples from every client goroutine.
type collector struct {
	mu        sync.Mutex
	samples   []sample
	stageMs   map[string][]float64
	respBytes int64
	shed      int
}

func (c *collector) add(s sample, stageMs map[string]float64, respBytes, status int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, s)
	for stage, ms := range stageMs {
		if c.stageMs == nil {
			c.stageMs = make(map[string][]float64)
		}
		c.stageMs[stage] = append(c.stageMs[stage], ms)
	}
	c.respBytes += int64(respBytes)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		c.shed++
	}
}

// usage is what the process spent over one measured window.
type usage struct {
	wall, cpu time.Duration
	allocated uint64
	gcs       uint32
	gcPause   time.Duration
}

// measure runs fn and reports its wall time plus the process's CPU time
// (getrusage user+sys), bytes allocated and GC activity across it. The
// server is in-process, so these cover generator and server together.
func measure(fn func()) usage {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	u := usage{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	u.allocated = m1.TotalAlloc - m0.TotalAlloc
	u.gcs = m1.NumGC - m0.NumGC
	u.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return u
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// target sends generated requests to the in-process server over TCP.
type target struct {
	url    string
	client *http.Client
	chk    *checker
	rec    *recorder
	col    *collector
}

func runRequestBody(cfg mmbench.RunConfig) ([]byte, error) {
	paper := cfg.PaperScale
	return json.Marshal(serve.RunRequest{
		Workload: cfg.Workload, Variant: cfg.Variant, Device: cfg.Device, Batch: cfg.BatchSize,
		PaperScale: &paper, Eager: cfg.Eager, Seed: cfg.Seed, Precision: cfg.Precision,
	})
}

// post sends one encoded /v1/run request and returns the status and
// full body.
func (t *target) post(body []byte) (int, []byte, error) {
	resp, err := t.client.Post(t.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// prime sends one unmeasured request (warm-up, cache prefill) and
// requires a 200.
func (t *target) prime(cfg mmbench.RunConfig) error {
	body, err := runRequestBody(cfg)
	if err != nil {
		return err
	}
	status, data, err := t.post(body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.120s", status, data)
	}
	return err
}

// send issues measured request n and records its sample. due is when an
// open-loop request was scheduled (zero for a closed loop, which times
// from the send). Traced requests get request → client.encode,
// client.rtt, client.decode spans.
func (t *target) send(o op, n int, due time.Time, traced bool) {
	rec := t.rec
	if !traced {
		rec = nil
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	root := rec.start(0, n, "request")
	s := rec.start(root, n, "client.encode")
	body, err := runRequestBody(o.cfg)
	rec.finish(s)

	var status int
	var data []byte
	s = rec.start(root, n, "client.rtt")
	if err == nil {
		status, data, err = t.post(body)
	}
	rec.finish(s)
	done := time.Now()

	s = rec.start(root, n, "client.decode")
	var stageMs map[string]float64
	ok := false
	if err != nil {
		t.chk.fail("request %d: %v", n, err)
	} else {
		stageMs, ok = t.chk.response(o, n, status, data)
	}
	rec.finish(s)
	rec.finish(root)
	fp := -1
	if o.cfg.Eager {
		fp = o.idx
	}
	t.col.add(sample{lat: done.Sub(due), lag: sent.Sub(due), end: done, fp: fp, ok: ok, batch: o.cfg.BatchSize, traced: rec != nil},
		stageMs, len(data), status)
}

// traces says whether the i-th request of a client records spans in a
// traced run: every other one, so that the traced and untraced halves of
// one window can be compared.
func traces(i int) bool { return i%2 == 1 }

// openLoop sends every request at its due time whatever is still in
// flight, and returns once all have completed.
func (t *target) openLoop(list []op) {
	start := time.Now()
	var wg sync.WaitGroup
	for i, o := range list {
		due := start.Add(o.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.send(o, i, due, traces(i))
		}()
	}
	wg.Wait()
}

// closedLoop runs one client per list, each sending its next request
// when the previous one completed, until the window closes.
func (t *target) closedLoop(lists [][]op, window time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i >= len(list) && list[0].cfg.Eager {
					// A repeated eager seed would be a cache hit and change
					// what the workload measures.
					t.chk.fail("client %d used up its %d requests; raise the list bound", c, len(list))
					return
				}
				t.send(list[i%len(list)], i*len(lists)+c, time.Time{}, traces(i))
			}
		}()
	}
	wg.Wait()
}

// sweepLoop runs the listed sweeps back to back until the window closes,
// each over the shared pool with a fresh cache, so every cell is a miss.
// It stops only between rounds of one sweep per workload: the workloads
// differ severalfold in cost, and a window that ended mid-round would
// count whichever of them the seed happened to put first. An op is one
// grid cell, timed around the run function RunSweep accepts. It returns
// the summed cache counters of every sweep's runner.
func sweepLoop(list []mmbench.SweepConfig, window time.Duration, pool *jobs.Pool, chk *checker, rec *recorder, col *collector) resultcache.Stats {
	deadline := time.Now().Add(window)
	var total resultcache.Stats
	var cells int
	for i := 0; i < len(list) && (i%len(sweepWorkloads) != 0 || time.Now().Before(deadline)); i++ {
		var rc *recorder
		if traces(i) {
			rc = rec
		}
		runner := mmbench.NewCachedRunner(64 << 20)
		first := cells
		var mu sync.Mutex
		root := rc.start(0, i, "sweep")
		_, err := mmbench.RunSweep(list[i], func(cfg mmbench.RunConfig) (*mmbench.Report, error) {
			mu.Lock()
			n := cells
			cells++
			mu.Unlock()
			s := rc.start(root, i, "cell")
			t0 := time.Now()
			rep, err := runner.Run(cfg)
			lat := time.Since(t0)
			rc.finish(s)
			ok := err == nil && chk.report(cfg, n, rep)
			if err != nil {
				chk.fail("sweep %d cell %d: %v", i, n-first, err)
			}
			col.add(sample{lat: lat, end: t0.Add(lat), fp: -1, ok: ok, batch: cfg.BatchSize, traced: rc != nil}, nil, 0, 0)
			return rep, err
		}, pool)
		rc.finish(root)
		if err != nil {
			chk.fail("sweep %d: %v", i, err)
		}
		st := runner.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Executions += st.Executions
		total.Coalesced += st.Coalesced
		total.Evictions += st.Evictions
	}
	return total
}

// fetchStats reads the server's /v1/stats.
func (t *target) fetchStats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := t.client.Get(t.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}
