// Package jobs is a worker-pool job scheduler: a bounded queue feeding a
// fixed set of workers, with per-job status tracking and graceful
// shutdown. It is the fan-out substrate for everything in MMBench that
// runs many independent profile configurations — parallel sweeps, the
// multi-config experiment drivers, and the HTTP service's async
// endpoints.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mmbench/internal/faultinject"
	"mmbench/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	// StatusShed marks a job the pool dropped without running it: its
	// deadline expired in the queue, its context was cancelled, or the
	// pool began shutting down. Shed jobs carry the shedding error.
	StatusShed Status = "shed"
)

var (
	// ErrQueueFull is returned by Submit when the bounded queue has no
	// room; callers should retry or shed load.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShutdown is returned by Submit after Shutdown has begun, and is
	// the error queued-but-unstarted jobs are shed with during Shutdown.
	ErrShutdown = errors.New("jobs: pool shut down")
	// ErrDeadline is returned by SubmitCtx when the job's deadline has
	// already passed, and is the error a queued job is shed with when its
	// deadline expires before a worker picks it up.
	ErrDeadline = errors.New("jobs: deadline expired before start")
	// ErrWontFinish is returned by SubmitCtx when the job's estimated
	// cost does not fit in the time remaining before its deadline —
	// admission control sheds it instead of wasting a worker on a run
	// whose client will have given up.
	ErrWontFinish = errors.New("jobs: estimated cost exceeds time before deadline")
)

// PanicError is the error a panicking job fails with: the recovered
// value plus the goroutine stack at the panic site, so operators can
// diagnose a quarantined workload from the job record alone.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: job panicked: %v", e.Value)
}

// Fn is the unit of work: it returns the job's result or an error.
type Fn func() (any, error)

// CtxFn is a cancellation-aware unit of work: the pool passes the
// job's context (carrying the submitter's cancellation and the job's
// deadline) and the job is expected to abandon work when it expires.
type CtxFn func(ctx context.Context) (any, error)

// SubmitOptions carries SubmitCtx's admission parameters.
type SubmitOptions struct {
	// Deadline is the wall-clock completion deadline (zero = none). An
	// expired deadline sheds the job at admission and again at dequeue;
	// a pending one bounds the run's context.
	Deadline time.Time
	// EstCost is the predicted run duration (0 = unknown). When the
	// estimate does not fit before Deadline, admission fails with
	// ErrWontFinish instead of queueing doomed work.
	EstCost time.Duration
}

// Job tracks one submitted unit of work. Fields are read through
// Snapshot; the struct itself is shared with the pool's workers.
type Job struct {
	id   string
	done chan struct{}

	mu       sync.Mutex
	status   Status
	result   any
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID       string
	Status   Status
	Result   any
	Err      error
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// ID returns the job's pool-unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot copies the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Status: j.status, Result: j.result, Err: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// Wait blocks until the job finishes or the context is cancelled, then
// returns the job's result.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.result = result
	}
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// shed marks the job dropped-without-running with the shedding error.
func (j *Job) shed(err error) {
	j.mu.Lock()
	j.status = StatusShed
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

type task struct {
	job *Job
	fn  CtxFn
	// ctx is the submitter's context: its cancellation sheds the job at
	// dequeue and aborts it mid-run.
	ctx      context.Context
	deadline time.Time
}

// Counts summarizes the pool's jobs by state.
type Counts struct {
	Queued, Running, Done, Failed, Shed int
}

// Resilience counts the pool's load-shedding and fault-recovery events
// since start. All fields are monotonic.
type Resilience struct {
	// ShedExpired: jobs dropped because their deadline passed before a
	// worker could start them (at admission or at dequeue).
	ShedExpired int64 `json:"shed_expired"`
	// ShedOverload: jobs dropped because the queue was full or their
	// estimated cost could not fit before their deadline.
	ShedOverload int64 `json:"shed_overload"`
	// ShedShutdown: queued jobs dropped by Shutdown's drain.
	ShedShutdown int64 `json:"shed_shutdown"`
	// Cancelled: jobs whose context was cancelled — before start (shed)
	// or mid-run (the run returned a context error).
	Cancelled int64 `json:"cancelled"`
	// PanicsRecovered: job panics converted into PanicError failures.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// Pool is a fixed-size worker pool with a bounded submission queue.
type Pool struct {
	queue chan task
	// wg counts the workers and every running group goroutine, so
	// Shutdown returns only once nothing the pool started is running.
	wg sync.WaitGroup
	// subWG counts in-flight submissions so Shutdown only closes the
	// queue channel once no sender can still touch it.
	subWG sync.WaitGroup

	mu   sync.Mutex
	seq  uint64
	jobs map[string]*Job
	// retired lists finished job IDs oldest-first; beyond maxRetained
	// the oldest finished jobs are forgotten so a long-running pool
	// doesn't pin every result ever produced.
	retired []string
	closed  bool

	// waitHist accumulates queue-wait time — enqueue (Job.created) to
	// worker pickup — for every job a worker dequeued.
	waitMu   sync.Mutex
	waitHist obs.Histogram

	// draining flips on when Shutdown begins: workers shed every job
	// still in the queue with ErrShutdown instead of running it, so
	// shutdown latency is one in-flight job per worker, not the queue.
	draining atomic.Bool

	shedExpired     atomic.Int64
	shedOverload    atomic.Int64
	shedShutdown    atomic.Int64
	cancelled       atomic.Int64
	panicsRecovered atomic.Int64

	// clock drives queue-wait measurement and deadline checks. Tests in
	// this package swap in an obs.FakeClock (before submitting anything)
	// to assert exact waits instead of sleeping; the record timestamps on
	// Job (created display aside, started/finished) stay on real time.
	clock obs.Clock
}

// Resilience snapshots the pool's shed/cancel/panic counters.
func (p *Pool) Resilience() Resilience {
	return Resilience{
		ShedExpired:     p.shedExpired.Load(),
		ShedOverload:    p.shedOverload.Load(),
		ShedShutdown:    p.shedShutdown.Load(),
		Cancelled:       p.cancelled.Load(),
		PanicsRecovered: p.panicsRecovered.Load(),
	}
}

// maxRetained bounds how many finished jobs stay queryable via Get.
const maxRetained = 1024

// NewPool starts workers goroutines consuming a queue of queueCap
// pending jobs. workers and queueCap are clamped to at least 1.
func NewPool(workers, queueCap int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	p := &Pool{
		queue: make(chan task, queueCap),
		jobs:  make(map[string]*Job),
		clock: obs.RealClock(),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		faultinject.Hit(faultinject.SiteJobsDequeue)
		// Dequeue-time shedding: jobs that can no longer usefully run are
		// dropped here, so one stalled queue cannot turn into workers
		// grinding through work whose clients are gone.
		switch {
		case p.draining.Load():
			p.shedShutdown.Add(1)
			t.job.shed(ErrShutdown)
			p.retire(t.job)
			continue
		case t.ctx.Err() != nil:
			if errors.Is(t.ctx.Err(), context.DeadlineExceeded) {
				p.shedExpired.Add(1)
			}
			p.cancelled.Add(1)
			t.job.shed(t.ctx.Err())
			p.retire(t.job)
			continue
		case !t.deadline.IsZero() && !p.clock.Now().Before(t.deadline):
			p.shedExpired.Add(1)
			t.job.shed(ErrDeadline)
			p.retire(t.job)
			continue
		}
		// created is immutable after newJob and the channel receive
		// orders it before this read.
		wait := p.clock.Since(t.job.created)
		p.waitMu.Lock()
		p.waitHist.Observe(wait.Seconds())
		p.waitMu.Unlock()
		t.job.setRunning()
		runCtx, cancel := t.ctx, func() {}
		if !t.deadline.IsZero() {
			runCtx, cancel = context.WithDeadline(t.ctx, t.deadline)
		}
		res, err := p.runProtected(runCtx, t.fn)
		cancel()
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			p.cancelled.Add(1)
		}
		t.job.finish(res, err)
		p.retire(t.job)
	}
}

// QueueWait snapshots the queue-wait histogram: how long dequeued jobs
// sat between submission and a worker picking them up. Group parent
// jobs never enter the queue, so they are not counted.
func (p *Pool) QueueWait() obs.Histogram {
	p.waitMu.Lock()
	defer p.waitMu.Unlock()
	return p.waitHist
}

// QueueDepth returns the number of jobs currently sitting in the queue
// waiting for a worker.
func (p *Pool) QueueDepth() int { return len(p.queue) }

// retire records a finished job, evicting the oldest finished jobs
// beyond the retention bound. Queued and running jobs are never
// evicted.
func (p *Pool) retire(j *Job) {
	p.mu.Lock()
	p.retired = append(p.retired, j.id)
	for len(p.retired) > maxRetained {
		delete(p.jobs, p.retired[0])
		p.retired = p.retired[1:]
	}
	p.mu.Unlock()
}

// runProtected invokes fn, converting a panic into a PanicError so one
// bad job cannot take down a worker, and counting the recovery.
func (p *Pool) runProtected(ctx context.Context, fn CtxFn) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panicsRecovered.Add(1)
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx)
}

// adapt lifts a context-oblivious Fn into a CtxFn.
func adapt(fn Fn) CtxFn {
	return func(context.Context) (any, error) { return fn() }
}

// newJob registers a fresh queued job and takes a submission slot; the
// caller must release it with p.subWG.Done() once the job is either on
// the queue or dropped.
func (p *Pool) newJob() (*Job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrShutdown
	}
	p.subWG.Add(1)
	p.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%06d", p.seq),
		done:    make(chan struct{}),
		status:  StatusQueued,
		created: p.clock.Now(),
	}
	p.jobs[j.id] = j
	return j, nil
}

// Submit enqueues fn without blocking; it fails with ErrQueueFull when
// the queue is at capacity.
func (p *Pool) Submit(fn Fn) (*Job, error) {
	return p.SubmitCtx(context.Background(), SubmitOptions{}, adapt(fn))
}

// SubmitCtx enqueues a cancellation-aware job under admission control:
// it fails fast with ErrDeadline when opts.Deadline has already passed,
// with ErrWontFinish when opts.EstCost does not fit before the
// deadline, and with ErrQueueFull when the queue has no room. ctx
// cancels the job — before start it is shed at dequeue, mid-run the
// job's context (bounded by the deadline) expires.
func (p *Pool) SubmitCtx(ctx context.Context, opts SubmitOptions, fn CtxFn) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if faultinject.Fail(faultinject.SiteJobsAdmit) {
		p.shedOverload.Add(1)
		return nil, ErrQueueFull
	}
	if !opts.Deadline.IsZero() {
		remain := opts.Deadline.Sub(p.clock.Now())
		if remain <= 0 {
			p.shedExpired.Add(1)
			return nil, ErrDeadline
		}
		if opts.EstCost > 0 && opts.EstCost > remain {
			p.shedOverload.Add(1)
			return nil, ErrWontFinish
		}
	}
	j, err := p.newJob()
	if err != nil {
		return nil, err
	}
	defer p.subWG.Done()
	select {
	case p.queue <- task{job: j, fn: fn, ctx: ctx, deadline: opts.Deadline}:
		return j, nil
	default:
		p.drop(j)
		p.shedOverload.Add(1)
		return nil, ErrQueueFull
	}
}

// SubmitWait enqueues fn, blocking while the queue is full until the
// context is cancelled. ctx gates only the submission; the job itself
// runs uncancellable (use SubmitCtx for cancellation-aware work).
func (p *Pool) SubmitWait(ctx context.Context, fn Fn) (*Job, error) {
	j, err := p.newJob()
	if err != nil {
		return nil, err
	}
	defer p.subWG.Done()
	select {
	case p.queue <- task{job: j, fn: adapt(fn), ctx: context.Background()}:
		return j, nil
	case <-ctx.Done():
		p.drop(j)
		return nil, ctx.Err()
	}
}

func (p *Pool) drop(j *Job) {
	p.mu.Lock()
	delete(p.jobs, j.id)
	p.mu.Unlock()
}

// SubmitGroup enqueues every fn as its own job and returns a parent job
// that completes when all children do, with Result holding the
// children's results in submission order. The parent fails with the
// first child error (by index) but always waits for every child.
// Submission and aggregation run on a dedicated goroutine, so a group
// returns immediately, never occupies a worker slot, and cannot
// deadlock the pool even when the group is larger than the queue.
func (p *Pool) SubmitGroup(fns []Fn) (*Job, error) {
	return p.SubmitGroupThen(fns, nil)
}

// SubmitGroupThen is SubmitGroup with a final assembly step: when every
// child succeeds, the parent's Result is then(childResults) instead of
// the raw slice. A nil then keeps the slice.
func (p *Pool) SubmitGroupThen(fns []Fn, then func([]any) (any, error)) (*Job, error) {
	parent, err := p.newJob()
	if err != nil {
		return nil, err
	}
	// Shutdown waits for the group goroutine like a worker. Adding to wg
	// before releasing the submission slot orders the Add before
	// Shutdown's wg.Wait, which starts only once every slot is released.
	p.wg.Add(1)
	p.subWG.Done() // the parent never touches the queue
	parent.setRunning()
	go func() {
		defer p.wg.Done()
		defer p.retire(parent)
		children := make([]*Job, len(fns))
		for i, fn := range fns {
			j, err := p.SubmitWait(context.Background(), fn)
			if err != nil {
				// Children already queued still run; the parent reports
				// the submission failure after waiting for them.
				for _, c := range children[:i] {
					<-c.Done()
				}
				parent.finish(nil, fmt.Errorf("submitting job %d/%d: %w", i+1, len(fns), err))
				return
			}
			children[i] = j
		}
		results := make([]any, len(children))
		var firstErr error
		for i, c := range children {
			<-c.Done()
			snap := c.Snapshot()
			results[i] = snap.Result
			if snap.Err != nil && firstErr == nil {
				firstErr = fmt.Errorf("job %d/%d: %w", i+1, len(children), snap.Err)
			}
		}
		if firstErr != nil {
			parent.finish(nil, firstErr)
			return
		}
		if then != nil {
			parent.finish(p.runProtected(context.Background(),
				func(context.Context) (any, error) { return then(results) }))
			return
		}
		parent.finish(results, nil)
	}()
	return parent, nil
}

// Map runs every fn through the pool and returns their results in
// order, waiting for all of them. The first error (by index) is
// returned after every fn has finished.
func (p *Pool) Map(fns []Fn) ([]any, error) {
	parent, err := p.SubmitGroup(fns)
	if err != nil {
		return nil, err
	}
	res, err := parent.Wait(context.Background())
	if err != nil {
		return nil, err
	}
	return res.([]any), nil
}

// Get looks up a job by ID.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Counts tallies jobs by status.
func (p *Pool) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c Counts
	for _, j := range p.jobs {
		switch j.Snapshot().Status {
		case StatusQueued:
			c.Queued++
		case StatusRunning:
			c.Running++
		case StatusDone:
			c.Done++
		case StatusFailed:
			c.Failed++
		case StatusShed:
			c.Shed++
		}
	}
	return c
}

// Shutdown stops accepting new jobs, sheds every job still waiting in
// the queue with ErrShutdown, and waits for the in-flight runs and
// group parents to drain, or until the context is cancelled. Shed jobs
// reach a terminal StatusShed state (their waiters unblock with the
// error) — they are dropped, not run, so shutdown latency is bounded by
// one in-flight job per worker. It is safe to call more than once.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.draining.Store(true)

	drained := make(chan struct{})
	go func() {
		// No new submission slots can be taken once closed is set, so
		// after subWG drains no sender can touch the queue.
		p.subWG.Wait()
		close(p.queue)
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
