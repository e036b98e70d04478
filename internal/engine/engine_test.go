package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmbench/internal/precision"
)

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		e := New(workers)
		for _, n := range []int{1, 7, 64, 1000} {
			counts := make([]int32, n)
			e.ParallelFor(n, 13, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		e.Close()
	}
}

func TestParallelForChunkBoundariesIgnoreWorkers(t *testing.T) {
	// The chunk set must be a pure function of (n, grain).
	collect := func(workers int) map[[2]int]bool {
		e := New(workers)
		defer e.Close()
		got := make(chan [2]int, 64)
		e.ParallelFor(100, 9, func(lo, hi int) { got <- [2]int{lo, hi} })
		close(got)
		set := make(map[[2]int]bool)
		for c := range got {
			set[c] = true
		}
		return set
	}
	ref := collect(2)
	for _, w := range []int{4, 8} {
		set := collect(w)
		if len(set) != len(ref) {
			t.Fatalf("workers=%d: %d chunks vs %d serial", w, len(set), len(ref))
		}
		for c := range ref {
			if !set[c] {
				t.Fatalf("workers=%d: chunk %v missing", w, c)
			}
		}
	}
}

func TestParallelForNested(t *testing.T) {
	e := New(4)
	defer e.Close()
	var total atomic.Int64
	e.ParallelFor(8, 1, func(lo, hi int) {
		e.ParallelFor(16, 2, func(lo2, hi2 int) {
			total.Add(int64(hi2 - lo2))
		})
	})
	if total.Load() != 8*16 {
		t.Fatalf("nested total %d, want %d", total.Load(), 8*16)
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	e := New(4)
	defer e.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		// The original panic value must survive intact, type and all.
		if r != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	e.ParallelFor(64, 1, func(lo, hi int) {
		if lo == 32 {
			panic("boom")
		}
	})
}

func TestBufferPoolReuseAndStats(t *testing.T) {
	e := New(1)
	b1 := e.Get(1000)
	if len(b1) != 1000 {
		t.Fatalf("len %d", len(b1))
	}
	b1[0] = 42
	e.Put(b1)
	b2 := e.Get(900) // same 1024-bucket
	if b2[0] != 0 {
		t.Fatalf("pooled buffer not zeroed: %f", b2[0])
	}
	s := e.Stats()
	if s.PoolHits != 1 || s.PoolMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.PoolHits, s.PoolMisses)
	}
	if s.BytesReused != 900*4 {
		t.Fatalf("bytes reused %d, want %d", s.BytesReused, 900*4)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %f", got)
	}
}

func TestBufferPoolPoison(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	e := New(1)
	b := e.Get(64)
	stale := b // simulated retained reference
	e.Put(b)
	if !math.IsNaN(float64(stale[0])) {
		t.Fatal("freed buffer not poisoned in debug mode")
	}
	fresh := e.Get(64)
	for i, v := range fresh {
		if v != 0 {
			t.Fatalf("Get returned non-zero elem %d: %f", i, v)
		}
	}
}

func TestBufferPoolByteBudget(t *testing.T) {
	e := New(1)
	// Six top-bucket buffers (16 MiB each) exceed the 64 MiB retention
	// budget: only four may be kept across Put.
	bufs := make([][]float32, 6)
	for i := range bufs {
		bufs[i] = e.GetUninit(maxBucket)
	}
	for _, b := range bufs {
		e.Put(b)
	}
	for range bufs {
		e.GetUninit(maxBucket)
	}
	s := e.Stats()
	if want := int64(maxPoolBytes / (maxBucket * 4)); s.PoolHits != want {
		t.Fatalf("pool retained %d top buckets, want %d (stats %+v)", s.PoolHits, want, s)
	}
}

func TestBufferPoolBypassesHugeRequests(t *testing.T) {
	e := New(1)
	b := e.Get(maxBucket + 1)
	if len(b) != maxBucket+1 {
		t.Fatalf("len %d", len(b))
	}
	e.Put(b) // must be a no-op, not a panic
	if s := e.Stats(); s.PoolHits != 0 {
		t.Fatalf("huge buffer should not pool: %+v", s)
	}
}

func TestNilEngineIsSerial(t *testing.T) {
	var e *Engine
	sum := 0
	e.ParallelFor(10, 3, func(lo, hi int) { sum += hi - lo })
	if sum != 10 {
		t.Fatalf("sum %d", sum)
	}
	b := e.Get(10)
	if len(b) != 10 {
		t.Fatalf("nil Get len %d", len(b))
	}
	e.Put(b)
	if e.Workers() != 1 || e.Stats().Workers != 1 {
		t.Fatal("nil engine should report 1 worker")
	}
}

// TestTaskObserverIsPerEngine: each engine's observer sees the worker
// chunks of that engine — through any of its handles — and none of
// another engine's, though both run at once.
func TestTaskObserverIsPerEngine(t *testing.T) {
	engines := []*Engine{New(4), New(4)}
	seen := make([]atomic.Int64, len(engines))
	for i, e := range engines {
		defer e.Close()
		e.SetTaskObserver(func(id int64, w int, start, end time.Time) {
			if id != e.ID() {
				t.Errorf("engine %d's observer saw a chunk of engine %d", e.ID(), id)
			}
			seen[i].Add(1)
		})
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Slow chunks so the helpers claim some of them.
			e.WithCancel(NewCancel()).ParallelFor(64, 1, func(lo, hi int) { time.Sleep(time.Millisecond) })
		}()
	}
	wg.Wait()
	for i := range engines {
		if seen[i].Load() == 0 {
			t.Errorf("engine %d's observer saw none of its helpers' chunks", engines[i].ID())
		}
	}
}

// TestCountLowpByPrecision: each reduced precision counts on its own
// counter and f32 counts on neither, so no caller has to guard the call.
func TestCountLowpByPrecision(t *testing.T) {
	for _, tc := range []struct {
		p       precision.Type
		f16, i8 int64
	}{{precision.F32, 0, 0}, {precision.F16, 1, 0}, {precision.I8, 0, 1}} {
		e := New(1)
		e.CountLowp(tc.p)
		if got := e.Stats().Precision; got.F16Kernels != tc.f16 || got.I8Kernels != tc.i8 {
			t.Errorf("CountLowp(%v): f16_kernels %d, i8_kernels %d; want %d, %d", tc.p, got.F16Kernels, got.I8Kernels, tc.f16, tc.i8)
		}
		e.Close()
	}
}

func TestDefaultEngineWorkers(t *testing.T) {
	SetDefaultWorkers(3)
	defer SetDefaultWorkers(0)
	if got := Default().Workers(); got != 3 {
		t.Fatalf("default workers %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := Default().Workers(); got < 1 {
		t.Fatalf("default workers %d", got)
	}
}
