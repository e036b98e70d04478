package batch

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"mmbench"
	"mmbench/internal/jobs"
	"mmbench/internal/obs"
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

// TestWindowMergesConcurrentRequests: two compatible requests landing
// within the accumulation window run as ONE merged execution, each
// getting its own report and the shared stage wall.
func TestWindowMergesConcurrentRequests(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	var mu sync.Mutex
	var calls [][]mmbench.RunConfig
	b := New(Options{
		Window: 2 * time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			mu.Lock()
			calls = append(calls, cfgs)
			mu.Unlock()
			return stubReports(cfgs), map[string]float64{"head": 1.5}, nil
		},
	})
	r1 := goDo(b, context.Background(), cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 8))
	// Both pending, loop parked on the window timer: now fire it.
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(2 * time.Millisecond)
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
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || len(calls[0]) != 2 {
		t.Fatalf("want 1 merged call of 2 configs, got %v", calls)
	}
	st := b.Stats()
	if st.MergedBatches != 1 || st.MergedRequests != 2 || st.MergedSamples != 12 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CoalesceRatio != 2 || st.MaxMerged != 2 || st.BatchSizes[2] != 1 {
		t.Fatalf("derived stats: %+v", st)
	}
}

// TestIncompatibleFingerprintsDoNotMerge: requests with different batch
// fingerprints (here: different precision policies) never share an
// execution, no matter how they overlap in time.
func TestIncompatibleFingerprintsDoNotMerge(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	var mu sync.Mutex
	var calls [][]mmbench.RunConfig
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			mu.Lock()
			calls = append(calls, cfgs)
			mu.Unlock()
			return stubReports(cfgs), nil, nil
		},
	})
	f32 := cfgFor(1, 4)
	i8 := cfgFor(2, 4)
	i8.Precision = "i8"
	r1 := goDo(b, context.Background(), f32)
	r2 := goDo(b, context.Background(), i8)
	waitUntil(t, "two parked loops", func() bool { return clock.Timers() == 2 })
	clock.Advance(time.Millisecond)
	if res := <-r1; res.err != nil {
		t.Fatal(res.err)
	}
	if res := <-r2; res.err != nil {
		t.Fatal(res.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 || len(calls[0]) != 1 || len(calls[1]) != 1 {
		t.Fatalf("want 2 solo calls, got %d: %v", len(calls), calls)
	}
}

// TestMaxBatchSplitsBySamples: the sample cap splits a backlog into
// several executions, and backlog after the first seal runs immediately
// (no second window wait — only one timer is ever created).
func TestMaxBatchSplitsBySamples(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	var mu sync.Mutex
	var calls [][]mmbench.RunConfig
	b := New(Options{
		MaxBatch: 8,
		Window:   time.Millisecond,
		Clock:    clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			mu.Lock()
			calls = append(calls, cfgs)
			mu.Unlock()
			return stubReports(cfgs), nil, nil
		},
	})
	var chans []chan doResult
	for seed := int64(1); seed <= 3; seed++ {
		chans = append(chans, goDo(b, context.Background(), cfgFor(seed, 4)))
	}
	waitUntil(t, "three pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 3 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
	for _, ch := range chans {
		if res := <-ch; res.err != nil {
			t.Fatal(res.err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 || len(calls[0]) != 2 || len(calls[1]) != 1 {
		t.Fatalf("want splits [2 1], got %v", calls)
	}
	if clock.Timers() != 0 {
		t.Fatalf("backlog seal must not wait a second window, %d timers pending", clock.Timers())
	}
	st := b.Stats()
	if st.MergedBatches != 2 || st.MergedRequests != 3 || st.MaxMerged != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOversizedRequestRunsAlone: a request bigger than MaxBatch is not
// rejected — it seals as a batch of one.
func TestOversizedRequestRunsAlone(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	b := New(Options{
		MaxBatch: 8,
		Window:   time.Millisecond,
		Clock:    clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			return stubReports(cfgs), nil, nil
		},
	})
	ch := goDo(b, context.Background(), cfgFor(1, 64))
	waitUntil(t, "parked loop", func() bool { return clock.Timers() == 1 })
	clock.Advance(time.Millisecond)
	if res := <-ch; res.err != nil || res.rep.Batch != 64 {
		t.Fatalf("oversized request failed: %+v", res)
	}
}

// TestCancelBeforeSeal: a waiter cancelled while queued is dropped from
// the batch; the survivors execute without it.
func TestCancelBeforeSeal(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	var mu sync.Mutex
	var calls [][]mmbench.RunConfig
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			mu.Lock()
			calls = append(calls, cfgs)
			mu.Unlock()
			return stubReports(cfgs), nil, nil
		},
	})
	cctx, cancel := context.WithCancel(context.Background())
	r1 := goDo(b, cctx, cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	waitUntil(t, "two pending", func() bool { return b.Stats().QueueDepth == 2 && clock.Timers() == 1 })
	cancel()
	if res := <-r1; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", res.err)
	}
	clock.Advance(time.Millisecond)
	if res := <-r2; res.err != nil || res.rep.LatencySeconds != 2 {
		t.Fatalf("survivor: %+v, err %v", res.rep, res.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || len(calls[0]) != 1 || calls[0][0].Seed != 2 {
		t.Fatalf("want one solo call for seed 2, got %v", calls)
	}
}

// TestCancelOneMidMergeOthersComplete: cancelling one waiter of an
// EXECUTING merged batch neither cancels the merged forward nor poisons
// the other members — they still get their reports.
func TestCancelOneMidMergeOthersComplete(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	release := make(chan struct{})
	running := make(chan context.Context, 1)
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			running <- ctx
			<-release
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			return stubReports(cfgs), nil, nil
		},
	})
	cctx, cancel := context.WithCancel(context.Background())
	r1 := goDo(b, cctx, cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
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
	clock := obs.NewFakeClock(time.Unix(0, 0))
	release := make(chan struct{})
	running := make(chan context.Context, 1)
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			running <- ctx
			<-release
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			return stubReports(cfgs), nil, nil
		},
	})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	r1 := goDo(b, ctx1, cfgFor(1, 4))
	r2 := goDo(b, ctx2, cfgFor(2, 4))
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
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
	clock := obs.NewFakeClock(time.Unix(0, 0))
	var panicCalls int
	var panicFPs []string
	fail := true
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			if fail {
				panic("merged forward crashed")
			}
			return stubReports(cfgs), nil, nil
		},
		OnPanic: func(fps []string, v any) {
			panicCalls++
			panicFPs = fps
		},
	})
	// Seeds 1 and 2 at batch 4 share a config fingerprint (seedless);
	// batch 8 is a distinct one. Expect exactly 2 deduped fingerprints.
	r1 := goDo(b, context.Background(), cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	r3 := goDo(b, context.Background(), cfgFor(3, 8))
	waitUntil(t, "three pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 3 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
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
	r4 := goDo(b, context.Background(), cfgFor(4, 4))
	waitUntil(t, "parked loop", func() bool { return clock.Timers() == 1 })
	clock.Advance(time.Millisecond)
	if res := <-r4; res.err != nil {
		t.Fatalf("batcher poisoned after panic: %v", res.err)
	}
}

// TestExecShedFailsAllWaiters: when the admission wrapper sheds the
// merged execution (queue full, deadline), every waiter fails with the
// admission error and Run never runs.
func TestExecShedFailsAllWaiters(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	ran := false
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			ran = true
			return stubReports(cfgs), nil, nil
		},
		Exec: func(ctx context.Context, deadline time.Time, est time.Duration, fn func(context.Context) error) error {
			return jobs.ErrQueueFull
		},
	})
	r1 := goDo(b, context.Background(), cfgFor(1, 4))
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
	for _, ch := range []chan doResult{r1, r2} {
		if res := <-ch; !errors.Is(res.err, jobs.ErrQueueFull) {
			t.Fatalf("want ErrQueueFull, got %v", res.err)
		}
	}
	if ran {
		t.Fatal("Run executed despite shed admission")
	}
}

// TestMergedDeadlineAndCost: the merged execution is admitted with the
// LOOSEST member deadline (zero if any member is unbounded) and the
// LARGEST member cost estimate.
func TestMergedDeadlineAndCost(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	type admission struct {
		deadline time.Time
		est      time.Duration
	}
	admitted := make(chan admission, 1)
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			return stubReports(cfgs), nil, nil
		},
		Exec: func(ctx context.Context, deadline time.Time, est time.Duration, fn func(context.Context) error) error {
			admitted <- admission{deadline, est}
			return fn(ctx)
		},
	})
	d1 := time.Unix(100, 0)
	d2 := time.Unix(200, 0)
	ch1 := make(chan doResult, 1)
	ch2 := make(chan doResult, 1)
	go func() {
		rep, st, err := b.Do(context.Background(), cfgFor(1, 4), d1, 5*time.Second)
		ch1 <- doResult{rep, st, err}
	}()
	go func() {
		rep, st, err := b.Do(context.Background(), cfgFor(2, 4), d2, 2*time.Second)
		ch2 <- doResult{rep, st, err}
	}()
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
	ad := <-admitted
	if !ad.deadline.Equal(d2) {
		t.Fatalf("merged deadline %v, want the loosest member %v", ad.deadline, d2)
	}
	if ad.est != 5*time.Second {
		t.Fatalf("merged cost %v, want the largest member 5s", ad.est)
	}
	<-ch1
	<-ch2

	// An unbounded member makes the merge unbounded.
	go func() {
		rep, st, err := b.Do(context.Background(), cfgFor(3, 4), d1, 0)
		ch1 <- doResult{rep, st, err}
	}()
	go func() {
		rep, st, err := b.Do(context.Background(), cfgFor(4, 4), time.Time{}, 0)
		ch2 <- doResult{rep, st, err}
	}()
	waitUntil(t, "two pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 2 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
	if ad := <-admitted; !ad.deadline.IsZero() {
		t.Fatalf("merged deadline %v, want zero when a member is unbounded", ad.deadline)
	}
	<-ch1
	<-ch2
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
		Window: time.Microsecond,
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
	clock := obs.NewFakeClock(time.Unix(0, 0))
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	var mu sync.Mutex
	var calls [][]mmbench.RunConfig
	b := New(Options{
		Window: time.Millisecond,
		Clock:  clock,
		Run: func(ctx context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			mu.Lock()
			calls = append(calls, cfgs)
			first := len(calls) == 1
			mu.Unlock()
			if first {
				running <- struct{}{}
				<-release
			}
			return stubReports(cfgs), nil, nil
		},
	})
	r1 := goDo(b, context.Background(), cfgFor(1, 4))
	waitUntil(t, "one pending + parked loop", func() bool {
		return b.Stats().QueueDepth == 1 && clock.Timers() == 1
	})
	clock.Advance(time.Millisecond)
	<-running // the first batch is sealed and executing
	r2 := goDo(b, context.Background(), cfgFor(2, 4))
	r3 := goDo(b, context.Background(), cfgFor(3, 4))
	waitUntil(t, "two arrivals queued behind the execution", func() bool { return b.Stats().QueueDepth == 2 })
	if n := queueCount(b); n != 1 {
		t.Fatalf("%d fingerprint queues while one executes with backlog, want 1", n)
	}
	close(release)
	for i, r := range []chan doResult{r1, r2, r3} {
		if res := <-r; res.err != nil || res.rep.LatencySeconds != float64(i+1) {
			t.Fatalf("request %d: %+v, err %v", i+1, res.rep, res.err)
		}
	}
	mu.Lock()
	if len(calls) != 2 || len(calls[0]) != 1 || len(calls[1]) != 2 {
		t.Fatalf("want executions of 1 then 2 merged configs, got %v", calls)
	}
	mu.Unlock()
	if clock.Timers() != 0 {
		t.Fatal("the re-seal must not wait a second window")
	}
	waitUntil(t, "the drained queue to be deleted", func() bool { return queueCount(b) == 0 })
}
