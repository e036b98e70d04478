package batch

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmbench"
	"mmbench/internal/jobs"
)

// cfgFor builds a batch-compatible eager config whose seed (data) and
// batch size vary per request, like distinct loadgen clients.
func cfgFor(seed int64, bs int) mmbench.RunConfig {
	return mmbench.RunConfig{Workload: "avmnist", Eager: true, Seed: seed, BatchSize: bs}
}

// stubReports fabricates one report per config, marked with the
// config's seed so scatter order is checkable.
func stubReports(cfgs []mmbench.RunConfig) []*mmbench.Report {
	reps := make([]*mmbench.Report, len(cfgs))
	for i, c := range cfgs {
		reps[i] = &mmbench.Report{Workload: c.Workload, Batch: c.BatchSize, LatencySeconds: float64(c.Seed)}
	}
	return reps
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// doResult carries one Do call's return values across its goroutine.
type doResult struct {
	rep     *mmbench.Report
	stageMs map[string]float64
	err     error
}

func goDo(b *Batcher, ctx context.Context, cfg mmbench.RunConfig) chan doResult {
	ch := make(chan doResult, 1)
	go func() {
		rep, st, err := b.Do(ctx, cfg, time.Time{}, 0)
		ch <- doResult{rep, st, err}
	}()
	return ch
}

// gate holds a batcher's first execution until the test opens it. With
// no accumulation window, requests share an execution only by queueing
// behind an executing batch of their fingerprint: whatever is pending
// when the held batch finishes merges on the loop's re-seal.
type gate struct {
	calls   atomic.Int64
	running chan struct{}
	open    chan struct{}
}

func newGate() *gate {
	return &gate{running: make(chan struct{}), open: make(chan struct{})}
}

// wrap returns run with its first call held at the gate. The held call
// answers with stub reports and never reaches run, so a recording stub
// sees only the batches formed behind it.
func (g *gate) wrap(run RunFn) RunFn {
	return func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
		if g.calls.Add(1) == 1 {
			g.running <- struct{}{}
			<-g.open
			return stubReports(cfgs), nil, nil
		}
		return run(ctx, cfgs)
	}
}

// hold submits the blocker cfg and returns once its execution is held at
// the gate.
func (g *gate) hold(b *Batcher, cfg mmbench.RunConfig) chan doResult {
	ch := goDo(b, context.Background(), cfg)
	<-g.running
	return ch
}

// enqueue submits cfg behind the held execution and returns once it is
// pending, so requests queue in the order the test submits them.
func enqueue(t *testing.T, b *Batcher, ctx context.Context, cfg mmbench.RunConfig) chan doResult {
	t.Helper()
	depth := b.Stats().QueueDepth
	ch := goDo(b, ctx, cfg)
	waitUntil(t, "the request to queue", func() bool { return b.Stats().QueueDepth == depth+1 })
	return ch
}

// release waits until want requests queue behind the held execution,
// then opens the gate and waits for the blocker's own answer.
func (g *gate) release(t *testing.T, b *Batcher, blocker chan doResult, want int) {
	t.Helper()
	waitUntil(t, "requests queued behind the held execution", func() bool { return b.Stats().QueueDepth == want })
	close(g.open)
	if res := <-blocker; res.err != nil {
		t.Fatalf("blocker: %v", res.err)
	}
}

// recorder is a Run stub that records every batch it executes.
type recorder struct {
	mu    sync.Mutex
	calls [][]mmbench.RunConfig
}

func (r *recorder) run(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
	r.mu.Lock()
	r.calls = append(r.calls, cfgs)
	r.mu.Unlock()
	return stubReports(cfgs), map[string]float64{"head": 1.5}, nil
}

// seeds lists each recorded batch's member seeds.
func (r *recorder) seeds() [][]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]int64, len(r.calls))
	for i, c := range r.calls {
		for _, cfg := range c {
			out[i] = append(out[i], cfg.Seed)
		}
	}
	return out
}

// TestQueuedRequestsMerge: two compatible requests queued behind an
// executing batch run as ONE merged execution, each getting its own
// report and the shared stage wall.
func TestQueuedRequestsMerge(t *testing.T) {
	g, rec := newGate(), &recorder{}
	b := New(Options{Run: g.wrap(rec.run)})
	blocker := g.hold(b, cfgFor(0, 4))
	r1 := enqueue(t, b, context.Background(), cfgFor(1, 4))
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 8))
	g.release(t, b, blocker, 2)
	a, c := <-r1, <-r2
	if a.err != nil || c.err != nil {
		t.Fatalf("Do errors: %v, %v", a.err, c.err)
	}
	if a.rep.LatencySeconds != 1 || c.rep.LatencySeconds != 2 {
		t.Fatalf("scatter order wrong: got seeds %v, %v", a.rep.LatencySeconds, c.rep.LatencySeconds)
	}
	if a.stageMs["head"] != 1.5 || c.stageMs["head"] != 1.5 {
		t.Fatalf("stage wall not shared: %v, %v", a.stageMs, c.stageMs)
	}
	if got := fmt.Sprint(rec.seeds()); got != "[[1 2]]" {
		t.Fatalf("want 1 merged call of seeds 1 and 2, got %s", got)
	}
	// The blocker's batch of one counts too.
	st := b.Stats()
	if st.MergedBatches != 2 || st.MergedRequests != 3 || st.MergedSamples != 16 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CoalesceRatio != 1.5 || st.MaxMerged != 2 || st.BatchSizes[1] != 1 || st.BatchSizes[2] != 1 {
		t.Fatalf("derived stats: %+v", st)
	}
}

// TestIncompatibleFingerprintsDoNotMerge: requests with different batch
// fingerprints (here: different precision policies) never share an
// execution, and one fingerprint's executing batch holds up no other.
func TestIncompatibleFingerprintsDoNotMerge(t *testing.T) {
	g, rec := newGate(), &recorder{}
	b := New(Options{Run: g.wrap(rec.run)})
	blocker := g.hold(b, cfgFor(0, 4))
	f32 := enqueue(t, b, context.Background(), cfgFor(1, 4))
	i8 := cfgFor(2, 4)
	i8.Precision = "i8"
	// The i8 request runs while the f32 fingerprint is still held.
	if res := <-goDo(b, context.Background(), i8); res.err != nil {
		t.Fatal(res.err)
	}
	g.release(t, b, blocker, 1)
	if res := <-f32; res.err != nil {
		t.Fatal(res.err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.calls) != 2 || len(rec.calls[0]) != 1 || len(rec.calls[1]) != 1 || rec.calls[0][0].Precision != "i8" {
		t.Fatalf("want 2 solo calls, i8 first, got %d: %v", len(rec.calls), rec.calls)
	}
}

// TestMaxBatchSplitsBySamples: the sample cap splits a backlog into
// several executions, run back to back.
func TestMaxBatchSplitsBySamples(t *testing.T) {
	g, rec := newGate(), &recorder{}
	b := New(Options{MaxBatch: 8, Run: g.wrap(rec.run)})
	blocker := g.hold(b, cfgFor(0, 4))
	var chans []chan doResult
	for seed := int64(1); seed <= 3; seed++ {
		chans = append(chans, enqueue(t, b, context.Background(), cfgFor(seed, 4)))
	}
	g.release(t, b, blocker, 3)
	for _, ch := range chans {
		if res := <-ch; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if got := fmt.Sprint(rec.seeds()); got != "[[1 2] [3]]" {
		t.Fatalf("want splits [[1 2] [3]], got %s", got)
	}
	st := b.Stats()
	if st.MergedBatches != 3 || st.MergedRequests != 4 || st.MaxMerged != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOversizedRequestRunsAlone: a request bigger than MaxBatch is not
// rejected — it seals as a batch of one.
func TestOversizedRequestRunsAlone(t *testing.T) {
	b := New(Options{
		MaxBatch: 8,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			return stubReports(cfgs), nil, nil
		},
	})
	rep, _, err := b.Do(context.Background(), cfgFor(1, 64), time.Time{}, 0)
	if err != nil || rep.Batch != 64 {
		t.Fatalf("oversized request failed: %+v, err %v", rep, err)
	}
}

// TestCancelBeforeSeal: a waiter cancelled while queued is dropped from
// the batch; the survivors execute without it.
func TestCancelBeforeSeal(t *testing.T) {
	g, rec := newGate(), &recorder{}
	b := New(Options{Run: g.wrap(rec.run)})
	blocker := g.hold(b, cfgFor(0, 4))
	cctx, cancel := context.WithCancel(context.Background())
	r1 := enqueue(t, b, cctx, cfgFor(1, 4))
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 4))
	cancel()
	if res := <-r1; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", res.err)
	}
	g.release(t, b, blocker, 1)
	if res := <-r2; res.err != nil || res.rep.LatencySeconds != 2 {
		t.Fatalf("survivor: %+v, err %v", res.rep, res.err)
	}
	if got := fmt.Sprint(rec.seeds()); got != "[[2]]" {
		t.Fatalf("want one solo call for seed 2, got %s", got)
	}
}

// heldRun is a Run stub that parks every batch until release closes,
// first handing the test the batch's merged context.
func heldRun(running chan<- context.Context, release <-chan struct{}) RunFn {
	return func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
		running <- ctx
		<-release
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return stubReports(cfgs), nil, nil
	}
}

// TestCancelOneMidMergeOthersComplete: cancelling one waiter of an
// EXECUTING merged batch neither cancels the merged forward nor poisons
// the other members — they still get their reports.
func TestCancelOneMidMergeOthersComplete(t *testing.T) {
	g := newGate()
	release := make(chan struct{})
	running := make(chan context.Context, 1)
	b := New(Options{Run: g.wrap(heldRun(running, release))})
	blocker := g.hold(b, cfgFor(0, 4))
	cctx, cancel := context.WithCancel(context.Background())
	r1 := enqueue(t, b, cctx, cfgFor(1, 4))
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 4))
	g.release(t, b, blocker, 2)
	mctx := <-running // sealed and executing
	cancel()
	if res := <-r1; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", res.err)
	}
	if mctx.Err() != nil {
		t.Fatal("merged context cancelled while another waiter still wants the result")
	}
	close(release)
	if res := <-r2; res.err != nil || res.rep.LatencySeconds != 2 {
		t.Fatalf("survivor: %+v, err %v", res.rep, res.err)
	}
}

// TestCancelAllMidMergeCancelsForward: once EVERY member of an
// executing batch has cancelled, the merged context cancels so the
// forward stops doing work nobody wants.
func TestCancelAllMidMergeCancelsForward(t *testing.T) {
	g := newGate()
	release := make(chan struct{})
	running := make(chan context.Context, 1)
	b := New(Options{Run: g.wrap(heldRun(running, release))})
	blocker := g.hold(b, cfgFor(0, 4))
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	r1 := enqueue(t, b, ctx1, cfgFor(1, 4))
	r2 := enqueue(t, b, ctx2, cfgFor(2, 4))
	g.release(t, b, blocker, 2)
	mctx := <-running
	cancel1()
	cancel2()
	waitUntil(t, "merged context cancellation", func() bool { return mctx.Err() != nil })
	close(release)
	<-r1
	<-r2
}

// TestPanicScattersToAllWaiters: a panicking merged forward fails every
// waiter with the same jobs.PanicError, reports the DEDUPLICATED member
// fingerprints to OnPanic exactly once, and the next batch proceeds.
func TestPanicScattersToAllWaiters(t *testing.T) {
	g := newGate()
	var panicCalls int
	var panicFPs []string
	fail := true
	b := New(Options{
		Run: g.wrap(func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			if fail {
				panic("merged forward crashed")
			}
			return stubReports(cfgs), nil, nil
		}),
		OnPanic: func(fps []string, v any) {
			panicCalls++
			panicFPs = fps
		},
	})
	// Seeds 1 and 2 at batch 4 share a config fingerprint (seedless);
	// batch 8 is a distinct one. Expect exactly 2 deduped fingerprints.
	blocker := g.hold(b, cfgFor(0, 4))
	r1 := enqueue(t, b, context.Background(), cfgFor(1, 4))
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 4))
	r3 := enqueue(t, b, context.Background(), cfgFor(3, 8))
	g.release(t, b, blocker, 3)
	var pe *jobs.PanicError
	for i, ch := range []chan doResult{r1, r2, r3} {
		res := <-ch
		if !errors.As(res.err, &pe) {
			t.Fatalf("waiter %d: want PanicError, got %v", i, res.err)
		}
	}
	if panicCalls != 1 {
		t.Fatalf("OnPanic called %d times, want once per merged execution", panicCalls)
	}
	if len(panicFPs) != 2 {
		t.Fatalf("want 2 deduped fingerprints, got %v", panicFPs)
	}
	// The batcher survives: the next request runs fine.
	fail = false
	if res := <-goDo(b, context.Background(), cfgFor(4, 4)); res.err != nil {
		t.Fatalf("batcher poisoned after panic: %v", res.err)
	}
}

// TestExecShedFailsAllWaiters: when the admission wrapper sheds the
// merged execution (queue full, deadline), every waiter fails with the
// admission error and Run never runs.
func TestExecShedFailsAllWaiters(t *testing.T) {
	g := newGate()
	var admissions atomic.Int64
	ran := false
	b := New(Options{
		Run: g.wrap(func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			ran = true
			return stubReports(cfgs), nil, nil
		}),
		Exec: func(ctx context.Context, deadline time.Time, est time.Duration, fn func(context.Context) error) error {
			if admissions.Add(1) == 1 {
				return fn(ctx) // the blocker's
			}
			return jobs.ErrQueueFull
		},
	})
	blocker := g.hold(b, cfgFor(0, 4))
	r1 := enqueue(t, b, context.Background(), cfgFor(1, 4))
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 4))
	g.release(t, b, blocker, 2)
	for _, ch := range []chan doResult{r1, r2} {
		if res := <-ch; !errors.Is(res.err, jobs.ErrQueueFull) {
			t.Fatalf("want ErrQueueFull, got %v", res.err)
		}
	}
	if ran {
		t.Fatal("Run executed despite shed admission")
	}
	if st := b.Stats(); st.MaxMerged != 2 {
		t.Fatalf("the shed batch was not merged: %+v", st)
	}
}

// TestMergedDeadlineAndCost: the merged execution is admitted with the
// LOOSEST member deadline (zero if any member is unbounded) and the
// LARGEST member cost estimate.
func TestMergedDeadlineAndCost(t *testing.T) {
	type admission struct {
		deadline time.Time
		est      time.Duration
	}
	d1 := time.Unix(100, 0)
	d2 := time.Unix(200, 0)
	for _, tc := range []struct {
		name         string
		second       time.Time
		wantDeadline time.Time
	}{
		{"loosest bounded member", d2, d2},
		{"an unbounded member makes the merge unbounded", time.Time{}, time.Time{}},
	} {
		g := newGate()
		admitted := make(chan admission, 2)
		b := New(Options{
			Run: g.wrap(func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
				return stubReports(cfgs), nil, nil
			}),
			Exec: func(ctx context.Context, deadline time.Time, est time.Duration, fn func(context.Context) error) error {
				admitted <- admission{deadline, est}
				return fn(ctx)
			},
		})
		blocker := g.hold(b, cfgFor(0, 4))
		<-admitted // the blocker's
		ch1 := make(chan doResult, 1)
		ch2 := make(chan doResult, 1)
		go func() {
			rep, st, err := b.Do(context.Background(), cfgFor(1, 4), d1, 5*time.Second)
			ch1 <- doResult{rep, st, err}
		}()
		go func() {
			rep, st, err := b.Do(context.Background(), cfgFor(2, 4), tc.second, 2*time.Second)
			ch2 <- doResult{rep, st, err}
		}()
		g.release(t, b, blocker, 2)
		ad := <-admitted
		if !ad.deadline.Equal(tc.wantDeadline) {
			t.Fatalf("%s: merged deadline %v, want %v", tc.name, ad.deadline, tc.wantDeadline)
		}
		if ad.est != 5*time.Second {
			t.Fatalf("%s: merged cost %v, want the largest member 5s", tc.name, ad.est)
		}
		<-ch1
		<-ch2
	}
}

// queueCount reads the fingerprint map's size under the batcher's lock.
func queueCount(b *Batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queues)
}

// TestDrainedQueuesAreForgotten pins the unbounded-state fix: the batch
// fingerprint carries the request's raw workload/variant/device strings,
// so a client posting distinct garbage must not leave one map entry per
// string behind — a fingerprint's queue exists only while a loop owns it.
func TestDrainedQueuesAreForgotten(t *testing.T) {
	failed := errors.New("unknown workload")
	b := New(Options{
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			return nil, nil, failed
		},
	})
	const distinct = 1000
	var wg sync.WaitGroup
	slots := make(chan struct{}, 16) // a few in flight at once, not a thousand goroutines
	for i := 0; i < distinct; i++ {
		wg.Add(1)
		slots <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			cfg := mmbench.RunConfig{Workload: "no-such-workload-" + strconv.Itoa(i), Eager: true}
			if _, _, err := b.Do(context.Background(), cfg, time.Time{}, 0); !errors.Is(err, failed) {
				t.Errorf("request %d: err %v, want the run's failure", i, err)
			}
		}(i)
	}
	wg.Wait()
	// A loop forgets its queue on the seal after the one that woke its
	// waiters, so the last few may still be on their way out.
	waitUntil(t, "every drained queue to be deleted", func() bool { return queueCount(b) == 0 })
	if st := b.Stats(); st.MergedBatches != distinct || st.QueueDepth != 0 {
		t.Fatalf("stats after %d distinct fingerprints: %+v", distinct, st)
	}
}

// TestArrivalsDuringExecutionMergeIntoReseal: requests that land while a
// batch of their fingerprint executes join that fingerprint's live queue
// and run as one merged batch on the loop's immediate re-seal; only then
// is the queue forgotten.
func TestArrivalsDuringExecutionMergeIntoReseal(t *testing.T) {
	g, rec := newGate(), &recorder{}
	b := New(Options{Run: g.wrap(rec.run)})
	r1 := g.hold(b, cfgFor(1, 4)) // the first batch is sealed and executing
	r2 := enqueue(t, b, context.Background(), cfgFor(2, 4))
	r3 := enqueue(t, b, context.Background(), cfgFor(3, 4))
	if n := queueCount(b); n != 1 {
		t.Fatalf("%d fingerprint queues while one executes with backlog, want 1", n)
	}
	g.release(t, b, r1, 2)
	for i, r := range []chan doResult{r2, r3} {
		if res := <-r; res.err != nil || res.rep.LatencySeconds != float64(i+2) {
			t.Fatalf("request %d: %+v, err %v", i+2, res.rep, res.err)
		}
	}
	if st := b.Stats(); st.MergedBatches != 2 || st.BatchSizes[1] != 1 || st.BatchSizes[2] != 1 {
		t.Fatalf("want executions of 1 then 2 merged configs, got %+v", st)
	}
	if got := fmt.Sprint(rec.seeds()); got != "[[2 3]]" {
		t.Fatalf("want the re-seal to merge seeds 2 and 3, got %s", got)
	}
	waitUntil(t, "the drained queue to be deleted", func() bool { return queueCount(b) == 0 })
}

// TestIdleArrivalsRunAlone: a request on an idle fingerprint is sealed
// the moment it arrives, so one arriving right behind it queues instead
// of joining it, however late the loop's goroutine is scheduled. Both
// Do calls are held on the batcher's lock and released together — the
// tightest race two arrivals can run.
func TestIdleArrivalsRunAlone(t *testing.T) {
	rec := &recorder{}
	b := New(Options{Run: rec.run})
	b.mu.Lock()
	r1 := goDo(b, context.Background(), cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	time.Sleep(10 * time.Millisecond) // both Do calls reach the lock
	b.mu.Unlock()
	for _, r := range []chan doResult{r1, r2} {
		if res := <-r; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if st := b.Stats(); st.MergedBatches != 2 || st.MaxMerged != 1 {
		t.Fatalf("want two executions of one request each, got %+v (calls %v)", st, rec.seeds())
	}
}
