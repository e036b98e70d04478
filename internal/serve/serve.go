// Package serve exposes MMBench as a benchmark service: a stdlib
// net/http JSON API over the cached runner and the worker-pool
// scheduler. Synchronous profiling goes through POST /v1/run (identical
// concurrent requests are coalesced into one execution by the result
// cache), sweeps fan out through the scheduler as asynchronous jobs,
// and GET /v1/stats reports service throughput, latency percentiles
// and cache effectiveness.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmbench"
	"mmbench/internal/batch"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/jobs"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
	"mmbench/internal/resultcache"
	"mmbench/internal/workloads"
)

// Options configure the server.
type Options struct {
	// Workers is the scheduler's worker count (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds the scheduler's pending queue (default: 4×Workers).
	QueueCap int
	// CacheBytes is the result cache budget (default: 64 MiB).
	CacheBytes int64
	// DefaultPrecision is the storage-precision policy applied to
	// requests that do not set their own "precision" field (the
	// -precision flag of mmbench serve). Empty means float32.
	DefaultPrecision string
	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ (the -pprof flag of mmbench serve). Off by default:
	// the endpoints expose goroutine dumps and CPU profiles, which a
	// benchmark service should only serve when asked to.
	Pprof bool
	// DefaultDeadline caps every /v1/run request's completion deadline
	// (the -deadline flag of mmbench serve). Clients may request less
	// time via X-Deadline-Ms, never more. Zero means no server-side
	// deadline: only clients that send the header get one.
	DefaultDeadline time.Duration
	// QuarantineThreshold is how many recovered panics a single
	// workload-config fingerprint may accumulate before the config is
	// quarantined (requests fail fast with 422). Default 3.
	QuarantineThreshold int
	// MaxBatch caps the total sample count one merged cross-request
	// forward may carry (the -max-batch flag of mmbench serve). Zero
	// means the default (256); negative disables continuous batching
	// entirely — every eager request executes alone.
	MaxBatch int
	// BatchWindow is how long the continuous batcher holds the first
	// request on an idle queue for compatible requests to join (the
	// -batch-window flag). Zero means the default (2ms).
	BatchWindow time.Duration
	// Clock drives request-latency measurement and the batching window
	// (default: the wall clock). Tests inject an obs.FakeClock.
	Clock obs.Clock
}

// Server is the benchmark service.
type Server struct {
	runner           *mmbench.CachedRunner
	pool             *jobs.Pool
	mux              *http.ServeMux
	start            time.Time
	defaultPrecision string
	defaultDeadline  time.Duration
	workers          int
	quar             *quarantine
	est              *costEstimator
	clock            obs.Clock
	// batcher merges compatible concurrent eager requests into shared
	// forwards (nil when batching is disabled). It sits BELOW the result
	// cache: identical configs coalesce in the cache, distinct-but-
	// compatible ones merge here.
	batcher  *batch.Batcher
	maxBatch int
	window   time.Duration

	mu       sync.Mutex
	requests uint64
	// latHist is a streaming histogram of /v1/run service latencies:
	// O(1) per observation, no window — every request since start-up
	// contributes to the percentiles.
	latHist obs.Histogram

	// encodeErrors counts response-encoding failures (client gone,
	// truncated write, unencodable value) so they are observable in
	// /v1/stats instead of silently dropped.
	encodeErrors atomic.Uint64

	// fleetMu guards the placement counters: /v1/place requests served
	// and, per fleet device, how many stage nodes each search's best
	// placement assigned to it.
	fleetMu       sync.Mutex
	placeRequests uint64
	placeChosen   map[string]uint64
}

// New builds a server with its own scheduler and cache.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 4 * opts.Workers
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.Clock == nil {
		opts.Clock = obs.RealClock()
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 256
	}
	if opts.BatchWindow <= 0 {
		opts.BatchWindow = 2 * time.Millisecond
	}
	s := &Server{
		runner:           mmbench.NewCachedRunner(opts.CacheBytes),
		pool:             jobs.NewPool(opts.Workers, opts.QueueCap),
		mux:              http.NewServeMux(),
		start:            time.Now(),
		defaultPrecision: opts.DefaultPrecision,
		defaultDeadline:  opts.DefaultDeadline,
		workers:          opts.Workers,
		quar:             newQuarantine(opts.QuarantineThreshold),
		est:              newCostEstimator(),
		clock:            opts.Clock,
		maxBatch:         opts.MaxBatch,
		window:           opts.BatchWindow,
		placeChosen:      make(map[string]uint64),
	}
	if opts.MaxBatch > 0 {
		s.batcher = batch.New(batch.Options{
			MaxBatch: opts.MaxBatch,
			Window:   opts.BatchWindow,
			Clock:    opts.Clock,
			// Merged forwards resolve their network through the runner's
			// model store, like the runner's standalone executions.
			Run: s.runner.RunMergedProfiled,
			// One merged batch costs one scheduler admission and one
			// queue slot, exactly like a standalone execution.
			Exec: s.admit,
			// A panicking merged forward counts ONE quarantine strike per
			// distinct member config — not one per waiter, which would let
			// a single crash of a wide batch quarantine a config instantly.
			OnPanic: func(fps []string, v any) {
				summary := fmt.Sprint(v)
				for _, fp := range fps {
					s.quar.recordPanic(fp, summary)
				}
			},
		})
	}
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the scheduler.
func (s *Server) Close(ctx context.Context) error { return s.pool.Shutdown(ctx) }

// writeJSON encodes v as the response body. Encode failures after the
// status line has been written cannot be reported to the client, but
// they must not vanish either: the client saw a truncated (or empty)
// body, so the failure is logged and counted for /v1/stats.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeErrors.Add(1)
		log.Printf("serve: encoding %s %s response: %v", r.Method, r.URL.Path, err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.writeJSON(w, r, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decode parses a bounded JSON request body, rejecting unknown fields.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// writeDecodeErr distinguishes an oversized body (the MaxBytesReader
// tripped → 413) from a malformed one (400).
func (s *Server) writeDecodeErr(w http.ResponseWriter, r *http.Request, what string, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		s.writeErr(w, r, http.StatusRequestEntityTooLarge,
			"%s body exceeds %d bytes", what, maxErr.Limit)
		return
	}
	s.writeErr(w, r, http.StatusBadRequest, "bad %s request: %v", what, err)
}

func (s *Server) countRequest() {
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
}

func (s *Server) recordLatency(d time.Duration) {
	s.mu.Lock()
	s.latHist.Observe(d.Seconds())
	s.mu.Unlock()
}

// serviceLatency snapshots the /v1/run latency histogram.
func (s *Server) serviceLatency() obs.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latHist
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	s.writeJSON(w, r, http.StatusOK, map[string]any{"workloads": mmbench.Workloads()})
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"devices": mmbench.Devices(),
		// The fleet topology: full device profiles plus the interconnect
		// links the placement planner charges edge transfers on.
		"fleet": mmbench.Fleet(),
	})
}

// RunRequest is the POST /v1/run body. PaperScale defaults to true (the
// profile flavour the paper's system analysis uses).
type RunRequest struct {
	Workload   string `json:"workload"`
	Variant    string `json:"variant,omitempty"`
	Device     string `json:"device,omitempty"`
	Batch      int    `json:"batch,omitempty"`
	PaperScale *bool  `json:"paper_scale,omitempty"`
	Eager      bool   `json:"eager,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	// Precision is the per-stage storage-precision policy in flag
	// syntax ("f16", "head=i8,fusion=f16", …). Empty falls back to the
	// server's -precision default, then to float32. The report echoes
	// the canonical policy and, for eager runs, the output error versus
	// the f32 reference.
	Precision string `json:"precision,omitempty"`
}

func (rr RunRequest) config(defaultPrecision string) mmbench.RunConfig {
	paper := true
	if rr.PaperScale != nil {
		paper = *rr.PaperScale
	}
	prec := rr.Precision
	if prec == "" {
		prec = defaultPrecision
	}
	return mmbench.RunConfig{
		Workload:   rr.Workload,
		Variant:    rr.Variant,
		Device:     rr.Device,
		BatchSize:  rr.Batch,
		PaperScale: paper,
		Eager:      rr.Eager,
		Seed:       rr.Seed,
		Precision:  prec,
	}
}

// handleRun executes one profiled run under the full resilience
// contract: the request is admitted through the scheduler (deadline-
// and cost-aware, so doomed work is shed with 429/503 + Retry-After
// instead of queued), its context cancels the engine's chunk dispatch
// when the client disconnects or the deadline expires, and panics are
// recovered, counted against the config's fingerprint, and — after
// repeated panics — quarantined into an immediate 422.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	var req RunRequest
	if err := decode(w, r, &req); err != nil {
		s.writeDecodeErr(w, r, "run", err)
		return
	}
	cfg := req.config(s.defaultPrecision)
	fp := cfg.Fingerprint()
	if summary, bad := s.quar.blocked(fp); bad {
		s.writeErr(w, r, http.StatusUnprocessableEntity,
			"workload config quarantined after repeated panics: %s", summary)
		return
	}
	deadline, err := s.requestDeadline(r)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}

	// The real execution — and only it — goes through scheduler
	// admission: cache hits and requests coalesced onto an in-flight
	// identical execution never consume a queue slot, so N identical
	// clients cost one admission and one run.
	begin := s.clock.Now()
	var executed bool
	// Eager cache misses route through the continuous batcher: pending
	// compatible requests (same workload/variant/device/precision,
	// differing only in batch size and seed) merge into one forward, and
	// the scattered per-request report is bitwise identical to a
	// standalone run — so the cache entry it lands in is too.
	// Everything else is one pool job around the runner's own execution.
	batched := s.batcher != nil && cfg.Eager
	rep, stageMs, err := s.runner.RunProfiledCtxThrough(r.Context(), cfg,
		func(ctx context.Context, cfg mmbench.RunConfig) (rep *mmbench.Report, stageMs map[string]float64, err error) {
			executed = true
			est := s.est.estimate(fp)
			if batched {
				return s.batcher.Do(ctx, cfg, deadline, est)
			}
			err = s.admit(ctx, deadline, est, func(jctx context.Context) error {
				var runErr error
				rep, stageMs, runErr = s.runner.Execute(jctx, cfg)
				return runErr
			})
			return rep, stageMs, err
		})
	if err != nil {
		var pe *jobs.PanicError
		switch {
		case errors.As(err, &pe):
			// The fingerprint is known here whichever layer panicked —
			// engine worker, branch executor, kernel — because the pool
			// funnels every recovered panic into one PanicError. Batched
			// panics were already recorded by the batcher's OnPanic (once
			// per distinct member config); recording here again would
			// double-count this request's strike.
			if !batched {
				s.quar.recordPanic(fp, fmt.Sprintf("%v", pe.Value))
			}
			s.writeErr(w, r, http.StatusInternalServerError, "run panicked: %v", pe.Value)
		case errors.Is(err, jobs.ErrDeadline), errors.Is(err, jobs.ErrWontFinish),
			errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrShutdown),
			errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			// Shed at admission or in the queue, or cancelled mid-run
			// (client gone, or the deadline fired and stopped the engine
			// at a chunk boundary).
			s.writeShed(w, r, err)
		default:
			// The model is deterministic: any other failed run is a config
			// problem, not a transient one.
			s.writeErr(w, r, http.StatusBadRequest, "%v", err)
		}
		return
	}
	wall := s.clock.Since(begin)
	s.recordLatency(wall)
	if executed {
		// Calibrate the cost estimator on real executions only: a cache
		// hit's wall time says nothing about the run's compute cost.
		s.est.observe(fp, rep.LatencySeconds, wall)
	}
	body := map[string]any{"report": rep}
	if len(stageMs) > 0 {
		// Measured per-stage wall time, eager runs only. Kept outside
		// the report object, which stays byte-identical with profiling
		// on or off.
		body["stage_latency_ms"] = stageMs
	}
	s.writeJSON(w, r, http.StatusOK, body)
}

// admit runs fn as one pool job under scheduler admission (deadline- and
// cost-aware) and waits for it: a standalone execution and a merged
// batch each cost exactly one admission and one queue slot.
func (s *Server) admit(ctx context.Context, deadline time.Time, est time.Duration, fn func(context.Context) error) error {
	job, err := s.pool.SubmitCtx(ctx,
		jobs.SubmitOptions{Deadline: deadline, EstCost: est},
		func(jctx context.Context) (any, error) { return nil, fn(jctx) })
	if err != nil {
		return err
	}
	<-job.Done()
	return job.Snapshot().Err
}

// quarRun wraps the cached runner for sweep cells: a quarantined config
// fails its cell fast, and a panicking cell is recovered, recorded
// against the config's fingerprint, and reported as that cell's error
// instead of crashing the whole sweep's worker.
func (s *Server) quarRun(cfg mmbench.RunConfig) (rep *mmbench.Report, err error) {
	fp := cfg.Fingerprint()
	if summary, bad := s.quar.blocked(fp); bad {
		return nil, fmt.Errorf("workload config quarantined after repeated panics: %s", summary)
	}
	defer func() {
		if r := recover(); r != nil {
			s.quar.recordPanic(fp, fmt.Sprint(r))
			// Re-raise: each sweep cell is its own pool job, so the pool
			// recovers it into the cell's PanicError and counts it.
			panic(r)
		}
	}()
	return s.runner.Run(cfg)
}

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	Workload string   `json:"workload"`
	Variant  string   `json:"variant,omitempty"`
	Devices  []string `json:"devices"`
	Batches  []int    `json:"batches"`
	Tasks    int      `json:"tasks,omitempty"`
	// Precisions adds a storage-precision axis to the grid (one row per
	// device × batch × policy) plus a max-error column; Eager and Seed
	// execute the grid numerically so the error column is measured.
	Precisions []string `json:"precisions,omitempty"`
	Eager      bool     `json:"eager,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	var req SweepRequest
	if err := decode(w, r, &req); err != nil {
		s.writeDecodeErr(w, r, "sweep", err)
		return
	}
	// Like /v1/run, a sweep that does not choose precisions falls back
	// to the server-wide -precision default (when that default is a
	// real policy): the grid gains its Precision column so the applied
	// default is visible in the result.
	if len(req.Precisions) == 0 {
		if pol, err := precision.ParsePolicy(s.defaultPrecision); err == nil && !pol.AllF32() {
			req.Precisions = []string{s.defaultPrecision}
		}
	}
	fns, assemble, err := mmbench.SweepJob(mmbench.SweepConfig{
		Workload:   req.Workload,
		Variant:    req.Variant,
		Devices:    req.Devices,
		Batches:    req.Batches,
		Tasks:      req.Tasks,
		Precisions: req.Precisions,
		Eager:      req.Eager,
		Seed:       req.Seed,
	}, s.quarRun)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.pool.SubmitGroupThen(fns, assemble)
	if err != nil {
		if errors.Is(err, jobs.ErrShutdown) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.writeErr(w, r, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusAccepted, map[string]any{
		"job_id": job.ID(),
		"status": string(job.Snapshot().Status),
		"href":   "/v1/jobs/" + job.ID(),
	})
}

// JobResponse is the GET /v1/jobs/{id} body.
type JobResponse struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Error    string    `json:"error,omitempty"`
	Result   any       `json:"result,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	id := r.PathValue("id")
	job, ok := s.pool.Get(id)
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, "no such job %q", id)
		return
	}
	snap := job.Snapshot()
	resp := JobResponse{
		ID:       snap.ID,
		Status:   string(snap.Status),
		Created:  snap.Created,
		Started:  snap.Started,
		Finished: snap.Finished,
		Result:   snap.Result,
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      uint64       `json:"requests"`
	ThroughputRPS float64      `json:"throughput_rps"`
	EncodeErrors  uint64       `json:"encode_errors"`
	Latency       LatencyStats `json:"service_latency_ms"`
	// StageLatency reports measured per-stage wall-clock percentiles
	// (milliseconds) over the eager executions of this server's runner —
	// one sample per merged forward, none for a cache hit; empty until
	// the first eager run.
	StageLatency map[string]obs.Summary `json:"stage_latency_ms,omitempty"`
	Cache        CacheStats             `json:"cache"`
	// Models reports the runner's model store: hits are eager executions
	// served by an already-built network, executions are builds, bytes
	// the resident footprint — parameters plus packed_bytes, the GEMM
	// panels resident models keep.
	Models workloads.StoreStats `json:"models"`
	// Batching reports the continuous cross-request batcher: merged-
	// batch histogram, coalesce ratio and queue depth.
	Batching BatchingStats  `json:"batching"`
	Jobs     map[string]int `json:"jobs"`
	// Queue reports scheduler queue pressure: current depth plus
	// queue-wait percentiles (submission to worker pickup).
	Queue  QueueStats  `json:"queue"`
	Engine EngineStats `json:"engine"`
	// Attention reports the fused attention kernel's call count and
	// scratch-pool activity (the pooled tiles that replaced the
	// materialized score matrix).
	Attention ops.AttentionActivity `json:"attention"`
	// Branches counts how forwards ran their encoder branches:
	// concurrently (parallel_forwards, with the goroutines launched and
	// the backward joins replayed) or one after another
	// (sequential_forwards — single-encoder networks, recorded forwards,
	// and every forward on a one-worker engine). Counters only: branch
	// kernels run on the run's engine and are in the engine block.
	Branches  mmnet.BranchActivity `json:"branches"`
	Precision PrecisionStats       `json:"precision"`
	// Resilience reports load shedding, cancellation, panic recovery and
	// quarantine — the overload-resilience counters.
	Resilience ResilienceStats `json:"resilience"`
	// Fleet reports placement-planner activity: /v1/place requests and
	// the chosen-device histogram across best placements.
	Fleet FleetStats `json:"fleet"`
}

// LatencyStats are streaming percentiles over every /v1/run since
// start-up, in milliseconds.
type LatencyStats struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
}

// QueueStats reports scheduler queue pressure.
type QueueStats struct {
	// Depth is the number of jobs waiting in the queue right now.
	Depth int `json:"depth"`
	// WaitMs are queue-wait percentiles (enqueue to worker pickup) over
	// every job dequeued since start-up, in milliseconds.
	WaitMs obs.Summary `json:"wait_ms"`
}

// BatchingStats is the `batching` block of /v1/stats.
type BatchingStats struct {
	// Enabled is false when the server runs with batching disabled
	// (-max-batch < 0); the counters are then permanently zero.
	Enabled bool `json:"enabled"`
	// MaxBatch is the merged-forward sample cap; WindowMs the
	// accumulation window.
	MaxBatch int     `json:"max_batch"`
	WindowMs float64 `json:"window_ms"`
	batch.Stats
}

func (s *Server) batchingStats() BatchingStats {
	bs := BatchingStats{
		MaxBatch: s.maxBatch,
		WindowMs: float64(s.window) / float64(time.Millisecond),
	}
	if s.batcher == nil {
		return bs
	}
	bs.Enabled = true
	bs.Stats = s.batcher.Stats()
	return bs
}

// CacheStats extends the cache counters with the derived hit rate.
type CacheStats struct {
	resultcache.Stats
	HitRate float64 `json:"hit_rate"`
}

// EngineStats extends the compute-engine counters (eager-kernel tasks
// executed, buffer-pool traffic) with the derived pool hit rate. They
// are the default engine's counters, which is every kernel a served
// request runs, encoder branches included. Jobs and compute share one
// parallelism budget — see cmd/mmbench serve's -compute-workers flag.
type EngineStats struct {
	engine.Stats
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Pack reports the packed GEMM core's panel-scratch traffic and
	// which micro-kernel implementation the process selected.
	Pack PackStats `json:"pack"`
}

// PackStats extends the pack-panel pool counters of the packed GEMM
// core (internal/gemm) with the derived hit rate and the active
// micro-kernel name ("avx2-fma+vnni", "avx2-fma" or "generic").
type PackStats struct {
	gemm.PackActivity
	HitRate float64 `json:"hit_rate"`
	Kernel  string  `json:"kernel"`
}

// PrecisionStats reports mixed-precision execution: the server's
// default policy (requests may override per call) and the process-wide
// low-precision kernel counters — see cmd/mmbench serve's -precision
// flag and the RunRequest precision field.
type PrecisionStats struct {
	// Default is the canonical form of the server-wide policy ("f32"
	// when unset).
	Default string `json:"default"`
	ops.PrecisionActivity
}

// canonicalDefaultPrecision renders the server's default policy in
// canonical flag syntax ("f32" when unset or unparseable — the latter
// cannot happen via cmd/mmbench, which validates the flag at startup).
func (s *Server) canonicalDefaultPrecision() string {
	pol, err := precision.ParsePolicy(s.defaultPrecision)
	if err != nil {
		return "f32"
	}
	return pol.String()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	uptime := time.Since(s.start).Seconds()
	s.mu.Lock()
	requests := s.requests
	s.mu.Unlock()
	latHist := s.serviceLatency()
	lat := latHist.SummaryMs()
	var stageLat map[string]obs.Summary
	if stages := s.runner.StageLatencies(); len(stages) > 0 {
		stageLat = make(map[string]obs.Summary, len(stages))
		for stage, h := range stages {
			stageLat[stage] = h.SummaryMs()
		}
	}
	wait := s.pool.QueueWait()
	cs := s.runner.Stats()
	es := engine.TotalStats()
	packs := gemm.PackStats()
	counts := s.pool.Counts()
	s.writeJSON(w, r, http.StatusOK, Stats{
		UptimeSeconds: uptime,
		Requests:      requests,
		ThroughputRPS: float64(requests) / uptime,
		EncodeErrors:  s.encodeErrors.Load(),
		Latency: LatencyStats{
			Samples: int(lat.Samples),
			P50:     lat.P50,
			P95:     lat.P95,
			P99:     lat.P99,
		},
		StageLatency: stageLat,
		Queue: QueueStats{
			Depth:  s.pool.QueueDepth(),
			WaitMs: wait.SummaryMs(),
		},
		Cache:    CacheStats{Stats: cs, HitRate: cs.HitRate()},
		Models:   s.runner.ModelStats(),
		Batching: s.batchingStats(),
		Engine: EngineStats{
			Stats:       es,
			PoolHitRate: es.HitRate(),
			Pack: PackStats{
				PackActivity: packs,
				HitRate:      packs.HitRate(),
				Kernel:       gemm.KernelName(),
			},
		},
		Attention: ops.AttentionStats(),
		Branches:  mmnet.BranchStats(),
		Precision: PrecisionStats{
			Default:           s.canonicalDefaultPrecision(),
			PrecisionActivity: ops.PrecisionStats(),
		},
		Resilience: s.resilienceStats(),
		Fleet:      s.fleetStats(),
		Jobs: map[string]int{
			"queued":  counts.Queued,
			"running": counts.Running,
			"done":    counts.Done,
			"failed":  counts.Failed,
			"shed":    counts.Shed,
		},
	})
}
