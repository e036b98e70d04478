// Package engine is MMBench's shared compute engine: a persistent worker
// pool with deterministic row/tile partitioning plus a size-bucketed
// float32 buffer pool. Every eager kernel in internal/ops runs its hot
// loops through an Engine, so one knob (-compute-workers) bounds the
// numeric parallelism of the whole stack — CLI runs, sweeps and every
// `mmbench serve` job alike.
//
// Determinism contract: ParallelFor splits [0,n) into chunks whose
// boundaries depend only on n and grain — never on the worker count or
// on scheduling. Kernels keep a fixed per-element accumulation order
// inside each chunk, so results are bitwise identical at 1, 4 or 16
// workers, and identical to a serial run. gradcheck, trace emission and
// the result cache's canonical keys all rely on this.
//
// Ownership: a run has one engine. Every kernel of a forward — the
// encoder branches too, whether they run one after another or overlap
// on spare workers (see internal/mmnet) — goes through the run's own
// handle, so that engine's Stats count all of the run's work, its pool
// holds all of the run's scratch, its Cancel flag stops all of it and
// Close ends it. Concurrent branches share the workers the way nested
// ParallelFor calls do: each caller drains its own job and idle workers
// help whichever job woke them.
//
// Cancellation contract: an Engine value is a cheap handle around the
// shared worker/pool state, and WithCancel derives a handle that carries
// a per-run Cancel flag. Once the flag is signalled, ParallelFor stops
// claiming chunks at the next chunk boundary and every later invocation
// through the same handle returns immediately without running its body —
// the run's outputs are garbage from that point on and the caller is
// expected to abort at its next checkpoint (see Cancel.CheckAbort).
// Uncancelled runs never observe the flag beyond one atomic load per
// chunk claim, so chunk boundaries, claim order and results are
// unchanged.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmbench/internal/faultinject"
)

// Engine executes data-parallel loops on a persistent worker pool. It is
// a handle: the zero value is not usable (call New), a nil *Engine is
// valid and runs everything serially (no pool, no workers), and
// WithCancel derives handles that share the same workers, buffer pool
// and counters while carrying a per-run cancellation flag.
type Engine struct {
	st     *state
	cancel *Cancel
}

// state is the shared, process-lived part of an engine: the worker pool,
// the buffer pool and the activity counters. Every handle derived from
// one New call points at the same state.
type state struct {
	workers   int
	jobs      chan *job
	closeOnce sync.Once

	calls atomic.Int64 // ParallelFor invocations
	tasks atomic.Int64 // chunks executed (serial fast path counts 1)

	pool bufPool

	// id identifies the engine in task-observer spans (trace export
	// names worker tracks "engine<id>:w<k>").
	id int64
}

// engineSeq hands out engine ids.
var engineSeq atomic.Int64

// job is one ParallelFor invocation. Workers and the submitting
// goroutine race on next to claim chunk indices; chunk boundaries are a
// pure function of (n, grain).
type job struct {
	n, grain int
	chunks   int64
	next     atomic.Int64
	fn       func(lo, hi int)
	wg       sync.WaitGroup
	// cancel, when non-nil, is polled once per chunk claim: a signalled
	// flag makes the remaining chunks no-ops, so a cancelled run stops
	// consuming workers within one chunk boundary.
	cancel *Cancel

	panicMu  sync.Mutex
	panicVal any
}

// New builds an engine with the given worker count (0 or negative means
// GOMAXPROCS). A 1-worker engine runs every loop inline on the calling
// goroutine and starts no background goroutines.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &state{workers: workers, id: engineSeq.Add(1)}
	if workers > 1 {
		// Buffered so ParallelFor's wake-up sends never block even when
		// every worker is busy; stale pointers drain as no-ops.
		st.jobs = make(chan *job, 4*workers)
		for i := 0; i < workers-1; i++ {
			go st.workerLoop(i)
		}
	}
	return &Engine{st: st}
}

// WithCancel derives a handle that shares this engine's workers, buffer
// pool and counters but observes the given per-run cancellation flag in
// every ParallelFor. A nil flag returns the receiver unchanged; a nil
// receiver stays valid (serial execution that observes the flag).
func (e *Engine) WithCancel(c *Cancel) *Engine {
	if c == nil {
		return e
	}
	var st *state
	if e != nil {
		st = e.st
	}
	return &Engine{st: st, cancel: c}
}

// CancelFlag returns the handle's cancellation flag (nil on handles that
// never cancel — the nil-safe Cancel methods make that case free to
// check).
func (e *Engine) CancelFlag() *Cancel {
	if e == nil {
		return nil
	}
	return e.cancel
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int {
	if e == nil || e.st == nil {
		return 1
	}
	return e.st.workers
}

// ID returns the engine's process-unique id (0 for nil handles), stable
// across every handle derived from one New call.
func (e *Engine) ID() int64 {
	if e == nil || e.st == nil {
		return 0
	}
	return e.st.id
}

func (st *state) workerLoop(worker int) {
	for j := range st.jobs {
		st.drainWorker(j, worker)
	}
}

// drainWorker is drain on a dedicated worker goroutine: when a task
// observer is installed (trace export), each executed chunk is timed
// and reported with the engine's id and the worker's index. Chunks the
// submitting goroutine executes itself are not reported separately —
// that time is already inside the kernel span on the submitter's track.
// Chunks skipped because the job's run was cancelled are not reported:
// the observer sees the span stream cut off at the cancellation point.
func (st *state) drainWorker(j *job, worker int) {
	obs := loadTaskObserver()
	if obs == nil {
		st.drain(j)
		return
	}
	for {
		i := j.next.Add(1) - 1
		if i >= j.chunks {
			return
		}
		start := time.Now()
		if st.runChunk(j, int(i)) {
			obs(st.id, worker, start, time.Now())
		}
	}
}

// Close stops the background workers. Only needed for short-lived
// engines in tests; the default engine lives for the process. Close must
// not race with ParallelFor on the same engine.
func (e *Engine) Close() {
	if e != nil && e.st != nil && e.st.jobs != nil {
		e.st.closeOnce.Do(func() { close(e.st.jobs) })
	}
}

// ParallelFor executes fn over [0,n) split into chunks of the given
// grain. Chunks run concurrently across the pool; the calling goroutine
// always participates, so the call completes even if every worker is
// busy (nested ParallelFor is safe). fn must write only to regions
// disjoint per chunk. Panics inside fn are re-raised on the caller.
//
// On a handle whose Cancel flag is signalled, ParallelFor returns
// without running fn (already-running invocations stop claiming chunks
// at the next boundary). The caller's outputs are garbage from then on;
// the run must abort at its next Cancel.CheckAbort checkpoint.
func (e *Engine) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if e != nil && e.cancel.Cancelled() {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if e == nil || e.st == nil || e.st.workers <= 1 || chunks == 1 {
		if e != nil && e.st != nil {
			e.st.calls.Add(1)
			e.st.tasks.Add(1)
		}
		faultinject.Hit(faultinject.SiteEngineChunk)
		fn(0, n)
		return
	}
	st := e.st
	st.calls.Add(1)
	j := &job{n: n, grain: grain, chunks: int64(chunks), fn: fn, cancel: e.cancel}
	j.wg.Add(chunks)
	// Wake up to chunks-1 helpers; the caller claims chunks too.
	wake := chunks - 1
	if wake > st.workers-1 {
		wake = st.workers - 1
	}
	for i := 0; i < wake; i++ {
		select {
		case st.jobs <- j:
		default:
			i = wake // queue full: enough wake-ups are already pending
		}
	}
	st.drain(j)
	j.wg.Wait()
	if j.panicVal != nil {
		panic(j.panicVal)
	}
}

// drain claims and runs chunks until the job is exhausted.
func (st *state) drain(j *job) {
	for {
		i := j.next.Add(1) - 1
		if i >= j.chunks {
			return
		}
		st.runChunk(j, int(i))
	}
}

// runChunk executes one claimed chunk and reports whether the body ran
// (false when the job's run was cancelled before this chunk started).
func (st *state) runChunk(j *job, i int) (executed bool) {
	defer j.wg.Done()
	if j.cancel.Cancelled() {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			// Keep the original panic value (type intact for callers'
			// recover handlers); it is re-raised on the submitting
			// goroutine after the job drains.
			j.panicMu.Lock()
			if j.panicVal == nil {
				j.panicVal = r
			}
			j.panicMu.Unlock()
		}
	}()
	lo := i * j.grain
	hi := lo + j.grain
	if hi > j.n {
		hi = j.n
	}
	faultinject.Hit(faultinject.SiteEngineChunk)
	j.fn(lo, hi)
	st.tasks.Add(1)
	return true
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Workers int   `json:"workers"`
	Calls   int64 `json:"parallel_calls"`
	Tasks   int64 `json:"tasks_executed"`
	// Buffer-pool effectiveness.
	PoolHits    int64 `json:"pool_hits"`
	PoolMisses  int64 `json:"pool_misses"`
	BytesReused int64 `json:"bytes_reused"`
	// PoolOutstanding is the number of pool-range buffers currently
	// checked out and not yet returned. A quiescent engine must read 0;
	// anything else is a leak (the chaos suite asserts this under fault
	// injection).
	PoolOutstanding int64 `json:"pool_outstanding"`
}

// HitRate returns the pool hit fraction (0 when idle).
func (s Stats) HitRate() float64 {
	total := s.PoolHits + s.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(total)
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	if e == nil || e.st == nil {
		return Stats{Workers: 1}
	}
	st := e.st
	return Stats{
		Workers:         st.workers,
		Calls:           st.calls.Load(),
		Tasks:           st.tasks.Load(),
		PoolHits:        st.pool.hits.Load(),
		PoolMisses:      st.pool.misses.Load(),
		BytesReused:     st.pool.bytesReused.Load(),
		PoolOutstanding: st.pool.outstanding.Load(),
	}
}

var (
	defaultMu      sync.Mutex
	defaultEngine  *Engine
	defaultWorkers int // 0 = GOMAXPROCS at first use
)

// Default returns the process-wide engine, created lazily with
// SetDefaultWorkers' count (GOMAXPROCS if never set).
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEngine == nil {
		defaultEngine = New(defaultWorkers)
	}
	return defaultEngine
}

// TotalStats snapshots the counters of the engine served work runs on —
// the default engine's: a run executes every kernel, encoder branches
// included, on one engine, and a served run's is the default.
func TotalStats() Stats { return Default().Stats() }

// SetDefaultWorkers reconfigures the default engine's worker count (0
// restores GOMAXPROCS). It is meant for process start-up (CLI flag
// parsing); calling it while kernels are running on the default engine
// is a race.
func SetDefaultWorkers(n int) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultWorkers = n
	if defaultEngine != nil {
		defaultEngine.Close()
		defaultEngine = nil
	}
}
