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
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
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
	"mmbench/internal/obs"
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
	// Clock drives request-latency measurement (default: the wall
	// clock). Tests inject an obs.FakeClock.
	Clock obs.Clock
}

// Server is the benchmark service.
type Server struct {
	runner           *mmbench.CachedRunner
	pool             *jobs.Pool
	mux              *http.ServeMux
	handler          http.Handler
	idPrefix         string // prefix of the request ids the server mints
	ids              atomic.Uint64
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

	mu       sync.Mutex
	requests uint64
	// latHist is a streaming histogram of /v1/run service latencies:
	// O(1) per observation, no window — every request since start-up
	// contributes to the percentiles.
	latHist obs.Histogram

	// encodeErrors counts response-encoding failures (client gone,
	// truncated write, unencodable value — a /v1/run report among them)
	// so they are observable in /v1/stats instead of silently dropped.
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
	s := &Server{
		runner:           mmbench.NewCachedRunner(opts.CacheBytes),
		pool:             jobs.NewPool(opts.Workers, opts.QueueCap),
		mux:              http.NewServeMux(),
		idPrefix:         rand.Text()[:8] + "-",
		start:            time.Now(),
		defaultPrecision: opts.DefaultPrecision,
		defaultDeadline:  opts.DefaultDeadline,
		workers:          opts.Workers,
		quar:             newQuarantine(opts.QuarantineThreshold),
		est:              newCostEstimator(),
		clock:            opts.Clock,
		maxBatch:         opts.MaxBatch,
		placeChosen:      make(map[string]uint64),
	}
	s.handler = http.HandlerFunc(s.serveHTTP)
	if opts.MaxBatch > 0 {
		s.batcher = batch.New(batch.Options{
			MaxBatch: opts.MaxBatch,
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
func (s *Server) Handler() http.Handler { return s.handler }

// requestIDHeader names the id every response carries.
const requestIDHeader = "X-Request-Id"

// serveHTTP sets the response's request id before the route's handler
// runs, so every response carries one: the client's own X-Request-Id when
// it is 1–64 characters of [A-Za-z0-9._-], otherwise a fresh one — the
// server's random prefix and a sequence number. Error bodies repeat it as
// request_id; a /v1/run body never does, so cached bodies stay shared
// bytes.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if !validRequestID(id) {
		id = s.idPrefix + strconv.FormatUint(s.ids.Add(1), 10)
	}
	w.Header().Set(requestIDHeader, id)
	s.mux.ServeHTTP(w, r)
}

// validRequestID reports whether a client's id may be echoed as given.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

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
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.writeJSON(w, r, status, errorBody{Error: fmt.Sprintf(format, args...), RequestID: w.Header().Get(requestIDHeader)})
}

// maxBodyBytes bounds a request body; a longer one is refused with 413.
const maxBodyBytes = 1 << 20

// decode parses a bounded JSON request body, rejecting unknown fields
// and anything but whitespace after the one JSON value — reading to the
// end also lets the size limit see trailing bytes.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
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
//
// A 200 carries a Server-Timing header (serverTiming) whose four spans,
// stamped on s.clock, sum to the handler's wall: decode (the body),
// key (canonicalisation, fingerprint, quarantine and deadline), entry
// (EntryThrough: the lookup, any wait, and the execution if this request
// ran it) and write. The header is sent before the body, so the write
// span ends at WriteHeader and the body's bytes are outside it.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := s.clock.Now()
	s.countRequest()
	var req RunRequest
	if err := decode(w, r, &req); err != nil {
		s.writeDecodeErr(w, r, "run", err)
		return
	}
	decoded := s.clock.Now()
	// One canonicalisation serves the quarantine's fingerprint and the
	// cache's key.
	cfg := req.config(s.defaultPrecision).Keyed()
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
	e, err := s.runner.EntryThrough(r.Context(), cfg,
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
		case errors.Is(err, mmbench.ErrUnencodable):
			// The run finished but its report has no JSON form (a NaN or
			// infinite float). Nothing was cached, so the next identical
			// request executes again.
			s.encodeErrors.Add(1)
			log.Printf("serve: encoding %s %s response: %v", r.Method, r.URL.Path, err)
			s.writeErr(w, r, http.StatusInternalServerError, "%v", err)
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
	entered := s.clock.Now()
	wall := entered.Sub(begin)
	s.recordLatency(wall)
	if executed {
		// Calibrate the cost estimator on real executions only: a cache
		// hit's wall time says nothing about the run's compute cost.
		s.est.observe(fp, e.Report.LatencySeconds, wall)
	}
	// The body (a mmbench.RunResponse) was encoded once, when the entry
	// was produced; a hit or a miss alike only writes it.
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.Body)))
	spans := [4]time.Duration{decoded.Sub(start), begin.Sub(decoded), wall, s.clock.Now().Sub(entered)}
	h.Set("Server-Timing", serverTiming(spans, executed, e.StageLatencyMs))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(e.Body); err != nil {
		s.encodeErrors.Add(1)
		log.Printf("serve: writing %s %s response: %v", r.Method, r.URL.Path, err)
	}
}

// serverTiming renders a /v1/run response's Server-Timing value: the
// handler's decode, key, entry and write spans, the entry's desc naming
// an execution (this request ran it) or a hit (it found the entry made,
// or waited for an identical request's execution), then the entry's
// stage walls in forward order, labelled as measured at the execution
// that produced the entry — for a hit, an earlier request's. Durations
// are milliseconds to the microsecond. It appends into one small stack
// buffer.
func serverTiming(spans [4]time.Duration, executed bool, stageMs map[string]float64) string {
	var buf [320]byte
	b := buf[:0]
	for i, name := range [4]string{"decode", "key", "entry", "write"} {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, name...)
		b = appendMs(b, int64((spans[i]+time.Microsecond/2)/time.Microsecond))
		if name == "entry" {
			if executed {
				b = append(b, `;desc="execution"`...)
			} else {
				b = append(b, `;desc="hit"`...)
			}
		}
	}
	for _, stage := range [3]string{"encoder", "fusion", "head"} {
		if ms, ok := stageMs[stage]; ok {
			b = append(b, ", "...)
			b = append(b, stage...)
			b = appendMs(b, int64(math.Round(ms*1000)))
			b = append(b, `;desc="at the producing execution"`...)
		}
	}
	return string(b)
}

// appendMs appends ";dur=" and us ≥ 0 microseconds as milliseconds with
// three decimals.
func appendMs(b []byte, us int64) []byte {
	b = append(b, ";dur="...)
	b = strconv.AppendInt(b, us/1000, 10)
	f := us % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
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

// Stats is the GET /v1/stats body, and what GET /metrics renders:
// Server.stats is the one place either surface reads a source, so every
// series is its /v1/stats field at the same instant.
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
	// panels resident models keep, plus memo_bytes, their memoised
	// modeled-side templates (memo_hits/memo_misses count the reuse).
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
	Attention engine.AttentionActivity `json:"attention"`
	// Branches counts how forwards ran their encoder branches:
	// concurrently (parallel_forwards, with the goroutines launched and
	// the backward joins replayed) or one after another
	// (sequential_forwards — single-encoder networks, recorded forwards,
	// and every forward on a one-worker engine).
	Branches  engine.BranchActivity `json:"branches"`
	Precision PrecisionStats        `json:"precision"`
	// Resilience reports load shedding, cancellation, panic recovery and
	// quarantine — the overload-resilience counters.
	Resilience ResilienceStats `json:"resilience"`
	// Fleet reports placement-planner activity: /v1/place requests and
	// the chosen-device histogram across best placements.
	Fleet FleetStats `json:"fleet"`

	// The histograms behind the percentile summaries, for /metrics.
	latency, queueWait obs.Histogram
	stages             map[string]obs.Histogram
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
	// MaxBatch is the merged-forward sample cap.
	MaxBatch int `json:"max_batch"`
	batch.Stats
}

func (s *Server) batchingStats() BatchingStats {
	bs := BatchingStats{MaxBatch: s.maxBatch}
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
// executed, buffer-pool traffic, the run-scoped arenas of eager runs)
// with the derived pool hit rate. They
// are the default engine's counters, which is every kernel a served
// request runs, encoder branches included; the pack counters below and
// the attention, branches and precision blocks are the rest of that
// engine's Stats. Jobs and compute share one parallelism budget — see
// cmd/mmbench serve's -compute-workers flag.
type EngineStats struct {
	engine.Stats
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Pack reports the packed GEMM core's panel-scratch traffic and
	// which micro-kernel implementation the process selected.
	Pack PackStats `json:"pack"`
}

// PackStats extends the pack-panel pool counters of the packed GEMM
// core (internal/gemm) with the derived hit rate and the active
// micro-kernel name (gemm.KernelName: "avx512f-8x32+vnni",
// "avx512f-8x32", "avx2-fma+vnni", "avx2-fma" or "generic").
type PackStats struct {
	engine.PackActivity
	HitRate float64 `json:"hit_rate"`
	Kernel  string  `json:"kernel"`
}

// PrecisionStats reports mixed-precision execution: the server's
// default policy (requests may override per call) and the engine's
// low-precision kernel counters — see cmd/mmbench serve's -precision
// flag and the RunRequest precision field.
type PrecisionStats struct {
	// Default is the canonical form of the server-wide policy ("f32"
	// when unset).
	Default string `json:"default"`
	engine.PrecisionActivity
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
	s.writeJSON(w, r, http.StatusOK, s.stats())
}

// stats snapshots every counter the server reports.
func (s *Server) stats() Stats {
	uptime := time.Since(s.start).Seconds()
	s.mu.Lock()
	requests, latency := s.requests, s.latHist
	s.mu.Unlock()
	lat := latency.SummaryMs()
	stages := s.runner.StageLatencies()
	var stageLat map[string]obs.Summary
	if len(stages) > 0 {
		stageLat = make(map[string]obs.Summary, len(stages))
		for stage, h := range stages {
			stageLat[stage] = h.SummaryMs()
		}
	}
	wait := s.pool.QueueWait()
	cs := s.runner.Stats()
	es := engine.TotalStats()
	counts := s.pool.Counts()
	return Stats{
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
				PackActivity: es.Pack,
				HitRate:      es.Pack.HitRate(),
				Kernel:       gemm.KernelName(),
			},
		},
		Attention: es.Attention,
		Branches:  es.Branches,
		Precision: PrecisionStats{
			Default:           s.canonicalDefaultPrecision(),
			PrecisionActivity: es.Precision,
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
		latency:   latency,
		queueWait: wait,
		stages:    stages,
	}
}
