// Package loadgen is an SLO-aware load generator for the benchmark
// service: it drives a target (normally POST /v1/run on a live server)
// on a seeded arrival process and reports achieved throughput plus a
// latency percentile table — the numbers a max-batch or worker-count
// decision is judged by.
//
// Determinism is a design constraint, not an accident: the arrival
// schedule is a pure function of (seed, qps, duration, arrival), and a
// closed-loop run against a deterministic target under an injected
// obs.Clock produces a byte-identical report. The determinism harness
// pins both.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"mmbench/internal/obs"
)

// Modes and arrival processes.
const (
	// ModeOpen fires requests on the arrival schedule regardless of how
	// many are in flight — the right model for measuring latency under
	// an offered load (closed loops self-throttle and hide queueing).
	ModeOpen = "open"
	// ModeClosed runs Concurrency workers back-to-back: each issues the
	// next request as soon as the previous returns. Measures capacity,
	// not latency-under-offered-load.
	ModeClosed = "closed"

	// ArrivalPoisson spaces open-loop arrivals by exponential gaps with
	// mean 1/QPS (a memoryless arrival process, the standard open-loop
	// model); ArrivalUniform spaces them exactly 1/QPS apart.
	ArrivalPoisson = "poisson"
	ArrivalUniform = "uniform"
)

// Config parameterizes one load generation run.
type Config struct {
	// Mode is ModeOpen (default) or ModeClosed.
	Mode string
	// QPS is the open-loop target arrival rate (required for ModeOpen).
	QPS float64
	// Duration bounds the run (required).
	Duration time.Duration
	// Concurrency is the closed-loop worker count (default 1; ignored
	// in ModeOpen, where concurrency follows the arrival process).
	Concurrency int
	// Seed drives the arrival process. Equal seeds (with equal QPS,
	// Duration and Arrival) produce identical schedules.
	Seed uint64
	// Arrival is ArrivalPoisson (default) or ArrivalUniform.
	Arrival string
	// Clock paces the run (default: the wall clock). Tests inject an
	// obs.FakeClock for deterministic reports.
	Clock obs.Clock
}

func (cfg Config) withDefaults() Config {
	if cfg.Mode == "" {
		cfg.Mode = ModeOpen
	}
	if cfg.Arrival == "" {
		cfg.Arrival = ArrivalPoisson
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.RealClock()
	}
	return cfg
}

func (cfg Config) validate() error {
	switch cfg.Mode {
	case ModeOpen, ModeClosed:
	default:
		return fmt.Errorf("loadgen: unknown mode %q (want %q or %q)", cfg.Mode, ModeOpen, ModeClosed)
	}
	switch cfg.Arrival {
	case ArrivalPoisson, ArrivalUniform:
	default:
		return fmt.Errorf("loadgen: unknown arrival %q (want %q or %q)", cfg.Arrival, ArrivalPoisson, ArrivalUniform)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("loadgen: duration must be positive")
	}
	if cfg.Mode == ModeOpen && cfg.QPS <= 0 {
		return fmt.Errorf("loadgen: open-loop mode needs a positive qps")
	}
	return nil
}

// rng is xorshift64* — tiny, seedable, and stable across platforms, so
// schedules reproduce everywhere. (math/rand's stream is also stable,
// but a local generator keeps the schedule independent of stdlib
// internals and of any other rand use in the process.)
type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 // xorshift state must be nonzero
	}
	return rng(seed)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// float64 returns a uniform value in (0, 1] — the closed-open side
// matters because the exponential gap takes log of it.
func (r *rng) float64() float64 {
	return (float64(r.next()>>11) + 1) / float64(1<<53)
}

// Schedule returns the open-loop arrival offsets from run start, a pure
// function of (Seed, QPS, Duration, Arrival): equal configs yield equal
// schedules, byte for byte. Offsets are strictly within Duration.
func Schedule(cfg Config) []time.Duration {
	cfg = cfg.withDefaults()
	if cfg.QPS <= 0 || cfg.Duration <= 0 {
		return nil
	}
	var offs []time.Duration
	switch cfg.Arrival {
	case ArrivalUniform:
		gap := time.Duration(float64(time.Second) / cfg.QPS)
		for off := time.Duration(0); off < cfg.Duration; off += gap {
			offs = append(offs, off)
		}
	default: // poisson
		r := newRNG(cfg.Seed)
		off := time.Duration(0)
		for off < cfg.Duration {
			offs = append(offs, off)
			gap := -math.Log(r.float64()) / cfg.QPS
			off += time.Duration(gap * float64(time.Second))
		}
	}
	return offs
}

// Target executes one request. i is the request's index in the run
// (the HTTP target derives a distinct seed from it, so requests reach
// the server's batcher instead of its result cache). The returned
// error's string keys the report's error breakdown.
type Target func(ctx context.Context, i int) error

// Report is the run's result. With a deterministic target and clock it
// marshals byte-identically across runs.
type Report struct {
	Mode            string  `json:"mode"`
	Arrival         string  `json:"arrival,omitempty"` // open loop only
	Seed            uint64  `json:"seed"`
	TargetQPS       float64 `json:"target_qps,omitempty"` // open loop only
	Concurrency     int     `json:"concurrency,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	// ErrorCounts breaks errors down by message (e.g. one key per shed
	// status), so an SLO miss is attributable.
	ErrorCounts map[string]int64 `json:"error_counts,omitempty"`
	AchievedQPS float64          `json:"achieved_qps"`
	// Latency is the percentile summary in milliseconds; Histogram the
	// underlying non-empty buckets (upper bound in ms, count).
	Latency   obs.Summary `json:"latency_ms"`
	Histogram []HistRow   `json:"histogram,omitempty"`
}

// HistRow is one non-empty latency bucket.
type HistRow struct {
	UpToMs float64 `json:"up_to_ms"`
	Count  uint64  `json:"count"`
}

// Run drives target per cfg and builds the report. Request latencies
// are measured on cfg.Clock around each target call. A cancelled ctx
// stops issuing new requests; already-issued ones finish and count.
func Run(ctx context.Context, cfg Config, target Target) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	clock := cfg.Clock

	var mu sync.Mutex
	var hist obs.Histogram
	var requests, errCount int64
	errCounts := make(map[string]int64)
	record := func(lat time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		requests++
		hist.Observe(lat.Seconds())
		if err != nil {
			errCount++
			errCounts[err.Error()]++
		}
	}
	run := func(i int) {
		t0 := clock.Now()
		err := target(ctx, i)
		record(clock.Since(t0), err)
	}

	start := clock.Now()
	switch cfg.Mode {
	case ModeOpen:
		offs := Schedule(cfg)
		var wg sync.WaitGroup
	arrivals:
		for i, off := range offs {
			if wait := off - clock.Since(start); wait > 0 {
				select {
				case <-clock.After(wait):
				case <-ctx.Done():
					break arrivals
				}
			} else if ctx.Err() != nil {
				break arrivals
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	case ModeClosed:
		var wg sync.WaitGroup
		var seq int64
		next := func() int {
			mu.Lock()
			defer mu.Unlock()
			seq++
			return int(seq - 1)
		}
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && clock.Since(start) < cfg.Duration {
					run(next())
				}
			}()
		}
		wg.Wait()
	}
	elapsed := clock.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = cfg.Duration.Seconds()
	}

	rep := &Report{
		Mode:            cfg.Mode,
		Seed:            cfg.Seed,
		Concurrency:     cfg.Concurrency,
		DurationSeconds: cfg.Duration.Seconds(),
		Requests:        requests,
		Errors:          errCount,
		AchievedQPS:     float64(requests) / elapsed,
		Latency:         hist.SummaryMs(),
	}
	if cfg.Mode == ModeOpen {
		rep.Arrival = cfg.Arrival
		rep.TargetQPS = cfg.QPS
	}
	if len(errCounts) > 0 {
		rep.ErrorCounts = errCounts
	}
	for _, b := range hist.CumulativeBuckets() {
		rep.Histogram = append(rep.Histogram, HistRow{UpToMs: b.UpperBound * 1e3, Count: b.CumulativeCount})
	}
	// Cumulative → per-bucket counts: the table reads better as a
	// density, and the JSON stays self-contained.
	for i := len(rep.Histogram) - 1; i > 0; i-- {
		rep.Histogram[i].Count -= rep.Histogram[i-1].Count
	}
	return rep, nil
}

// Table renders the report as the fixed-width summary the CLI prints.
// The rendering is deterministic (golden-tested): stable field order,
// fixed precision, error keys sorted.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s", r.Mode)
	if r.Mode == ModeOpen {
		fmt.Fprintf(&b, " arrival=%s target_qps=%.1f", r.Arrival, r.TargetQPS)
	} else {
		fmt.Fprintf(&b, " concurrency=%d", r.Concurrency)
	}
	fmt.Fprintf(&b, " seed=%d duration=%.2fs\n", r.Seed, r.DurationSeconds)
	fmt.Fprintf(&b, "requests=%d errors=%d achieved_qps=%.2f\n", r.Requests, r.Errors, r.AchievedQPS)
	fmt.Fprintf(&b, "latency_ms: p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.MaxMs)
	if len(r.ErrorCounts) > 0 {
		keys := make([]string, 0, len(r.ErrorCounts))
		for k := range r.ErrorCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "error %6d  %s\n", r.ErrorCounts[k], k)
		}
	}
	if len(r.Histogram) > 0 {
		fmt.Fprintf(&b, "%12s %8s\n", "<= ms", "count")
		for _, row := range r.Histogram {
			fmt.Fprintf(&b, "%12.3f %8d\n", row.UpToMs, row.Count)
		}
	}
	return b.String()
}
