package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"mmbench/internal/obs"
)

func TestQueueWaitHistogram(t *testing.T) {
	p := NewPool(2, 16)
	defer p.Shutdown(context.Background())

	if fresh := p.QueueWait(); fresh.Count() != 0 {
		t.Fatal("fresh pool has queue-wait samples")
	}
	const jobs = 8
	js := make([]*Job, jobs)
	for i := range js {
		j, err := p.Submit(func() (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	for _, j := range js {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	h := p.QueueWait()
	if h.Count() != jobs {
		t.Fatalf("queue-wait count = %d, want %d", h.Count(), jobs)
	}
	if h.Min() < 0 {
		t.Fatalf("negative queue wait: %v", h.Min())
	}
	if h.Quantile(0.5) > h.Quantile(0.99) {
		t.Fatalf("p50 %v > p99 %v", h.Quantile(0.5), h.Quantile(0.99))
	}

	// The snapshot is a copy: mutating it must not touch the pool.
	h.Observe(1e6)
	again := p.QueueWait()
	if got := again.Count(); got != jobs {
		t.Fatalf("snapshot aliases the pool histogram: count %d", got)
	}
}

// TestQueueWaitExactWithFakeClock pins the queue-wait measurement to
// exact values: with the pool on a fake clock, a job queued behind a
// wedged worker waits precisely the advanced duration — an assertion
// impossible with real time, where every bound must be fuzzy.
func TestQueueWaitExactWithFakeClock(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Shutdown(context.Background())
	clock := obs.NewFakeClock(time.Unix(0, 0))
	p.clock = clock

	release := make(chan struct{})
	started := make(chan struct{})
	first, err := p.Submit(func() (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started // dequeued with the clock unmoved: wait exactly 0
	second, err := p.Submit(func() (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(250 * time.Millisecond) // the second job's whole queue wait
	close(release)
	for _, j := range []*Job{first, second} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	h := p.QueueWait()
	if h.Count() != 2 {
		t.Fatalf("queue-wait count = %d, want 2", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("first job's wait = %v, want exactly 0 (dequeued before any advance)", h.Min())
	}
	if h.Max() != 0.25 {
		t.Fatalf("second job's wait = %v, want exactly 0.25s", h.Max())
	}
	if h.Sum() != 0.25 {
		t.Fatalf("summed wait = %v, want exactly 0.25s", h.Sum())
	}
}

// TestJobRecordOnPoolClock pins the job record to the pool's clock: a
// job queued behind a blocked worker for d of fake time is started d
// after it was created — its queue-wait sample — and finished when the
// clock says, with no real time leaking into the record.
func TestJobRecordOnPoolClock(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Shutdown(context.Background())
	t0 := time.Unix(0, 0)
	clock := obs.NewFakeClock(t0)
	p.clock = clock

	release := make(chan struct{})
	started := make(chan struct{})
	first, err := p.Submit(func() (any, error) { close(started); <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := p.Submit(func() (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	const d = 250 * time.Millisecond
	clock.Advance(d)
	close(release)
	for _, j := range []*Job{first, second} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s := second.Snapshot()
	if !s.Created.Equal(t0) {
		t.Errorf("Created = %v, want the fake clock's %v", s.Created, t0)
	}
	if wait := s.Started.Sub(s.Created); wait != d {
		t.Errorf("Started − Created = %v, want %v", wait, d)
	}
	if h := p.QueueWait(); h.Max() != d.Seconds() {
		t.Errorf("queue-wait sample %v s, want %v s (Started − Created)", h.Max(), d.Seconds())
	}
	if !s.Finished.Equal(t0.Add(d)) {
		t.Errorf("Finished = %v, want %v", s.Finished, t0.Add(d))
	}
	if f := first.Snapshot(); !f.Started.Equal(t0) || !f.Finished.Equal(t0.Add(d)) {
		t.Errorf("first job Started %v Finished %v, want %v and %v", f.Started, f.Finished, t0, t0.Add(d))
	}
}

func TestQueueDepth(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Shutdown(context.Background())

	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("idle pool depth = %d", d)
	}
	block := make(chan struct{})
	started := make(chan struct{})
	blockOnce := func() (any, error) { close(started); <-block; return nil, nil }
	first, err := p.Submit(blockOnce)
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the worker even if an assertion below fails, so the
	// deferred Shutdown can drain. Registered after the Shutdown defer,
	// so it runs first.
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	<-started // the lone worker is now parked inside `first`
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := p.Submit(func() (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if d := p.QueueDepth(); d != 3 {
		t.Fatalf("depth = %d with 3 jobs behind a blocked worker", d)
	}
	unblock()
	for _, j := range append(queued, first) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("drained pool depth = %d", d)
	}
}
