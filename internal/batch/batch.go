// Package batch implements continuous cross-request batching for eager
// profiling runs. Requests whose configs share a batch fingerprint —
// same workload, variant, device, scale flavour and precision policy,
// differing only in batch size and data seed — are queued per
// fingerprint, accumulated for a short window, merged into ONE forward
// pass along the batch dimension, and their per-request reports
// scattered back to each waiter.
//
// The contract that makes this transparent is bitwise identity: a
// request's report out of a merged batch is byte-for-byte the report it
// would get running alone (core.RunMerged segments every
// batch-statistics and batch-shaped-kernel hazard per member). The
// batcher therefore composes with the result cache above it — identical
// configs coalesce in the cache, distinct-but-compatible configs merge
// here — without either layer knowing about the other.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mmbench"
	"mmbench/internal/data"
	"mmbench/internal/faultinject"
	"mmbench/internal/jobs"
	"mmbench/internal/obs"
)

// RunFn executes a sealed batch of compatible configs as one merged
// forward, returning one report per config (in order) plus the shared
// measured per-stage wall. The default is mmbench.RunMergedProfiled;
// tests substitute stubs.
type RunFn func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error)

// ExecFn wraps the merged execution — the serve layer routes it through
// scheduler admission so a merged batch costs exactly one queue slot
// (and one deadline/cost admission check), like a standalone run.
// Admission errors (shed, queue full) are returned without fn running;
// a panic in fn is Exec's to recover, into a *jobs.PanicError (the pool
// does, and counts it).
type ExecFn func(ctx context.Context, deadline time.Time, estCost time.Duration, fn func(context.Context) error) error

// Options configure a Batcher.
type Options struct {
	// MaxBatch caps the total SAMPLE count (sum of member batch sizes) a
	// merged forward may carry. Default 256. A single oversized request
	// still runs — alone.
	MaxBatch int
	// Window is how long the batching loop waits after the first request
	// lands on an idle queue before sealing, giving compatible requests
	// a chance to arrive. Backlog that accumulated during an execution
	// is sealed immediately. Default 2ms.
	Window time.Duration
	// Clock drives the accumulation window (default: the wall clock).
	// Tests inject an obs.FakeClock to step the window deterministically.
	Clock obs.Clock
	// Run executes a sealed batch (default mmbench.RunMergedProfiled).
	Run RunFn
	// Exec, when set, wraps each merged execution (see ExecFn).
	Exec ExecFn
	// OnPanic is called once per merged execution that panicked, with
	// the DEDUPLICATED config fingerprints of the batch's members — the
	// serve layer records one quarantine strike per distinct config, not
	// one per waiter.
	OnPanic func(fingerprints []string, v any)
}

// waiter is one pending request: its config, its share of the sample
// budget, and the channel its Do call blocks on until scatter.
type waiter struct {
	cfg      mmbench.RunConfig
	samples  int
	ctx      context.Context
	deadline time.Time
	estCost  time.Duration

	done    chan struct{}
	rep     *mmbench.Report
	stageMs map[string]float64
	err     error
}

// queue holds one batch fingerprint's pending waiters. It is in
// Batcher.queues exactly while a batching loop goroutine owns the
// fingerprint: Do creates the entry and starts the loop, seal deletes
// the entry when the loop finds it drained. The fingerprint carries
// client-supplied strings, so an entry per fingerprint ever seen would
// grow without bound.
type queue struct {
	pending []*waiter
}

// Batcher merges compatible concurrent eager requests into shared
// forward passes. Safe for concurrent use.
type Batcher struct {
	opts  Options
	clock obs.Clock

	mu     sync.Mutex
	queues map[string]*queue

	// Stats under mu.
	mergedBatches  int64
	mergedRequests int64
	mergedSamples  int64
	maxMerged      int
	sizeCounts     map[int]int64
}

// New builds a Batcher, applying Option defaults.
func New(opts Options) *Batcher {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	if opts.Window <= 0 {
		opts.Window = 2 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = obs.RealClock()
	}
	if opts.Run == nil {
		opts.Run = mmbench.RunMergedProfiled
	}
	return &Batcher{
		opts:       opts,
		clock:      opts.Clock,
		queues:     make(map[string]*queue),
		sizeCounts: make(map[int]int64),
	}
}

// Do submits one eager request and blocks until its batch executes (or
// ctx dies while the request is still pending). The returned report is
// bitwise identical to a standalone run of cfg.
func (b *Batcher) Do(ctx context.Context, cfg mmbench.RunConfig, deadline time.Time, estCost time.Duration) (*mmbench.Report, map[string]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	samples := cfg.BatchSize
	if samples <= 0 {
		samples = data.DefaultBatchSize
	}
	w := &waiter{
		cfg:      cfg,
		samples:  samples,
		ctx:      ctx,
		deadline: deadline,
		estCost:  estCost,
		done:     make(chan struct{}),
	}
	fp := cfg.BatchFingerprint()
	b.mu.Lock()
	q := b.queues[fp]
	if q == nil {
		q = &queue{}
		b.queues[fp] = q
		go b.loop(fp)
	}
	q.pending = append(q.pending, w)
	b.mu.Unlock()

	select {
	case <-w.done:
		return w.rep, w.stageMs, w.err
	case <-ctx.Done():
		// Pre-seal cancellation: pull the waiter off the queue so the
		// batch it would have joined is not poisoned by a dead member.
		// If it was already sealed, the execution finishes without us
		// (its merged context only cancels when EVERY member is gone).
		b.removePending(fp, w)
		return nil, nil, ctx.Err()
	}
}

// removePending drops w from its fingerprint queue if still pending.
func (b *Batcher) removePending(fp string, w *waiter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[fp]
	if q == nil {
		return
	}
	for i, p := range q.pending {
		if p == w {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// loop owns one fingerprint queue until it drains: wait the
// accumulation window (first seal only — the queue just left idle),
// seal, execute, and re-seal immediately while backlog remains.
func (b *Batcher) loop(fp string) {
	first := true
	for {
		if first {
			<-b.clock.After(b.opts.Window)
			first = false
		}
		batch := b.seal(fp)
		if batch == nil {
			return
		}
		b.execute(batch)
	}
}

// seal takes the next merged batch off the queue in FIFO order: at
// least one waiter, then more while the summed sample count stays
// within MaxBatch. Waiters whose context died in the queue are dropped.
// A nil return means the queue drained — the loop's ownership has been
// released and the queue's map entry deleted under the same lock, so no
// request can slip in unowned (the next Do re-creates the entry).
func (b *Batcher) seal(fp string) []*waiter {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[fp]
	live := q.pending[:0]
	for _, w := range q.pending {
		if w.ctx.Err() != nil {
			continue // its Do call returns ctx.Err() on its own
		}
		live = append(live, w)
	}
	q.pending = live
	if len(q.pending) == 0 {
		delete(b.queues, fp)
		return nil
	}
	n := 1
	total := q.pending[0].samples
	for n < len(q.pending) && total+q.pending[n].samples <= b.opts.MaxBatch {
		total += q.pending[n].samples
		n++
	}
	batch := make([]*waiter, n)
	copy(batch, q.pending[:n])
	q.pending = append(q.pending[:0], q.pending[n:]...)

	b.mergedBatches++
	b.mergedRequests += int64(n)
	b.mergedSamples += int64(total)
	if n > b.maxMerged {
		b.maxMerged = n
	}
	b.sizeCounts[n]++
	return batch
}

// execute runs one sealed batch and scatters results or the shared
// failure to every waiter. It never blocks on a waiter: done channels
// are closed, not sent on.
func (b *Batcher) execute(batch []*waiter) {
	// The merged deadline is the LOOSEST member deadline (a member with
	// no deadline makes the merge unbounded): shedding the whole batch
	// against the tightest member would fail requests that asked for
	// more time. The merged cost estimate is the largest member's.
	var deadline time.Time
	bounded := true
	var est time.Duration
	for _, w := range batch {
		if w.deadline.IsZero() {
			bounded = false
		} else if w.deadline.After(deadline) {
			deadline = w.deadline
		}
		if w.estCost > est {
			est = w.estCost
		}
	}
	if !bounded {
		deadline = time.Time{}
	}
	mctx, stop := mergedContext(batch)
	defer stop()

	cfgs := make([]mmbench.RunConfig, len(batch))
	for i, w := range batch {
		cfgs[i] = w.cfg
	}
	var reps []*mmbench.Report
	var stageMs map[string]float64
	run := func(ctx context.Context) (err error) {
		// One recover per path: under Exec the pool recovers a panicking
		// forward into a jobs.PanicError and counts it; inline nothing
		// else would, so fail the waiters with the same error here.
		if b.opts.Exec == nil {
			defer func() {
				if r := recover(); r != nil {
					err = &jobs.PanicError{Value: r, Stack: string(debug.Stack())}
				}
			}()
		}
		faultinject.Hit(faultinject.SiteBatchMerge)
		reps, stageMs, err = b.opts.Run(ctx, cfgs)
		return err
	}
	var err error
	if b.opts.Exec != nil {
		err = b.opts.Exec(mctx, deadline, est, run)
	} else {
		ctx := mctx
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		err = run(ctx)
	}
	if err != nil {
		var pe *jobs.PanicError
		if errors.As(err, &pe) && b.opts.OnPanic != nil {
			b.opts.OnPanic(memberFingerprints(batch), pe.Value)
		}
		for _, w := range batch {
			w.err = err
			close(w.done)
		}
		return
	}
	if len(reps) != len(batch) {
		err = fmt.Errorf("batch: merged run returned %d reports for %d requests", len(reps), len(batch))
		for _, w := range batch {
			w.err = err
			close(w.done)
		}
		return
	}
	for i, w := range batch {
		w.rep = reps[i]
		w.stageMs = stageMs // shared: the wall the batch actually paid
		close(w.done)
	}
}

// memberFingerprints deduplicates the batch members' config
// fingerprints, preserving first-seen order.
func memberFingerprints(batch []*waiter) []string {
	seen := make(map[string]bool, len(batch))
	var fps []string
	for _, w := range batch {
		fp := w.cfg.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			fps = append(fps, fp)
		}
	}
	return fps
}

// mergedContext derives the merged execution's context from the
// members': it cancels only when EVERY cancellable member context has
// died — as long as one waiter still wants the result, the forward
// keeps running (cancelling one request in a merged batch must not
// poison the rest). A member that cannot cancel (Done() == nil) pins
// the merge uncancellable. stop unregisters the members' callbacks.
func mergedContext(batch []*waiter) (context.Context, func()) {
	for _, w := range batch {
		if w.ctx.Done() == nil {
			return context.Background(), func() {}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int64
	remaining.Store(int64(len(batch)))
	stops := make([]func() bool, len(batch))
	for i, w := range batch {
		stops[i] = context.AfterFunc(w.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		cancel()
		for _, stop := range stops {
			stop()
		}
	}
}

// Stats is a snapshot of batching effectiveness.
type Stats struct {
	// MergedBatches counts merged executions; MergedRequests the
	// requests they carried; MergedSamples the summed sample count.
	MergedBatches  int64 `json:"merged_batches"`
	MergedRequests int64 `json:"merged_requests"`
	MergedSamples  int64 `json:"merged_samples"`
	// CoalesceRatio is requests per execution (1 = batching never
	// merged anything; >1 = cross-request sharing happened).
	CoalesceRatio float64 `json:"coalesce_ratio"`
	// MaxMerged is the largest request count a single execution carried.
	MaxMerged int `json:"max_merged"`
	// QueueDepth is the number of requests pending across every
	// fingerprint queue right now.
	QueueDepth int `json:"queue_depth"`
	// BatchSizes histograms executions by request count (JSON keys are
	// the counts).
	BatchSizes map[int]int64 `json:"batch_sizes,omitempty"`
}

// Stats snapshots the batcher's counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{
		MergedBatches:  b.mergedBatches,
		MergedRequests: b.mergedRequests,
		MergedSamples:  b.mergedSamples,
		MaxMerged:      b.maxMerged,
	}
	if b.mergedBatches > 0 {
		s.CoalesceRatio = float64(b.mergedRequests) / float64(b.mergedBatches)
	}
	for _, q := range b.queues {
		s.QueueDepth += len(q.pending)
	}
	if len(b.sizeCounts) > 0 {
		s.BatchSizes = make(map[int]int64, len(b.sizeCounts))
		for k, v := range b.sizeCounts {
			s.BatchSizes[k] = v
		}
	}
	return s
}
