package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelStopsAtChunkBoundary proves the cancellation contract: once
// the flag is signalled, no new chunk bodies start — only the chunks
// already in flight finish — and the task-observer span stream cuts off
// with them. The fn blocks every in-flight chunk until the flag is
// signalled, so the executed count is bounded by the goroutines that
// could have claimed a chunk before the signal (workers + submitter).
func TestCancelStopsAtChunkBoundary(t *testing.T) {
	const workers, chunks = 4, 64
	e := New(workers)
	defer e.Close()
	var spans atomic.Int64
	e.SetTaskObserver(func(id int64, w int, s, e time.Time) { spans.Add(1) })
	cancel := NewCancel()
	h := e.WithCancel(cancel)

	var executed atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	reason := errors.New("client disconnected")
	h.ParallelFor(chunks, 1, func(lo, hi int) {
		executed.Add(1)
		once.Do(func() {
			cancel.Signal(reason)
			close(release)
		})
		<-release
	})

	if got := executed.Load(); got > workers {
		t.Fatalf("%d chunk bodies ran after cancellation, want <= %d (one per claiming goroutine)", got, workers)
	}
	if got := spans.Load(); got >= chunks {
		t.Fatalf("observer saw %d spans, want a cutoff well below %d chunks", got, chunks)
	}
	if got, want := spans.Load(), executed.Load(); got > want {
		t.Fatalf("observer saw %d spans for %d executed chunks: skipped chunks must not be observed", got, want)
	}

	// Every later invocation through the cancelled handle is a no-op.
	var ran atomic.Bool
	h.ParallelFor(16, 1, func(lo, hi int) { ran.Store(true) })
	if ran.Load() {
		t.Fatal("ParallelFor ran its body on a cancelled handle")
	}

	// The derived handle shares state with the parent: the parent stays
	// un-cancelled and fully usable.
	e.ParallelFor(4, 1, func(lo, hi int) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("parent engine affected by a derived handle's cancellation")
	}
}

func TestCancelNilSafety(t *testing.T) {
	var c *Cancel
	if c.Cancelled() {
		t.Fatal("nil Cancel reports cancelled")
	}
	if c.Reason() != nil {
		t.Fatal("nil Cancel has a reason")
	}
	c.Signal(errors.New("x")) // must not panic
	c.CheckAbort()            // must not panic

	var e *Engine
	h := e.WithCancel(NewCancel())
	ran := false
	h.ParallelFor(8, 2, func(lo, hi int) { ran = true })
	if !ran {
		t.Fatal("nil-state handle did not run serially")
	}
	h.CancelFlag().Signal(nil)
	ran = false
	h.ParallelFor(8, 2, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("cancelled nil-state handle ran its body")
	}
	if !errors.Is(h.CancelFlag().Reason(), ErrCancelled) {
		t.Fatalf("nil-reason Signal: reason %v, want ErrCancelled", h.CancelFlag().Reason())
	}
}

func TestCheckAbortPanicsWithReason(t *testing.T) {
	c := NewCancel()
	reason := errors.New("deadline exceeded")
	c.Signal(reason)
	c.Signal(errors.New("second signal must not override"))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckAbort did not panic on a signalled flag")
		}
		got, ok := AbortReason(r)
		if !ok {
			t.Fatalf("panic value %v not classified as an abort", r)
		}
		if !errors.Is(got, reason) {
			t.Fatalf("abort reason %v, want the first signal %v", got, reason)
		}
	}()
	c.CheckAbort()
}

func TestAbortReasonRejectsForeignPanics(t *testing.T) {
	if _, ok := AbortReason("some other panic"); ok {
		t.Fatal("foreign panic classified as an abort")
	}
	if _, ok := AbortReason(nil); ok {
		t.Fatal("nil classified as an abort")
	}
}

// TestCancelledRunLeaksNoBuffers pairs pool accounting with skip-mode
// execution: a handle that checks out scratch, gets cancelled mid-kernel
// and returns the scratch on its normal code path must leave the pool
// balanced.
func TestCancelledRunLeaksNoBuffers(t *testing.T) {
	e := New(2)
	defer e.Close()
	cancel := NewCancel()
	h := e.WithCancel(cancel)

	buf := h.GetUninit(minBucket)
	cancel.Signal(nil)
	h.ParallelFor(1024, 1, func(lo, hi int) {
		t.Error("chunk body ran after cancellation")
	})
	h.Put(buf)

	if got := h.Stats().PoolOutstanding; got != 0 {
		t.Fatalf("pool outstanding %d after balanced checkout, want 0", got)
	}
}

func TestPoolOutstandingAccounting(t *testing.T) {
	e := New(1)
	defer e.Close()
	a := e.Get(minBucket)
	b := e.GetUninit(3 * minBucket)
	big := e.GetUninit(maxBucket + 1) // bypasses the pool: not counted
	if got := e.Stats().PoolOutstanding; got != 2 {
		t.Fatalf("outstanding %d with two pool-range checkouts, want 2", got)
	}
	e.Put(a)
	e.Put(b)
	e.Put(big)
	if got := e.Stats().PoolOutstanding; got != 0 {
		t.Fatalf("outstanding %d after returning everything, want 0", got)
	}
}
