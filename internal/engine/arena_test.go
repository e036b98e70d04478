package engine

import (
	"math"
	"sync"
	"testing"
)

// TestArenaServesAndReleases pins the arena's allocation rules: small
// tensors share slabs, a tensor larger than a slab gets its own pooled
// buffer, one beyond the largest bucket comes from the heap, and Release
// returns every pooled buffer (NaN-poisoned under SetDebug) and records
// the run's bytes.
func TestArenaServesAndReleases(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	e := New(1)
	defer e.Close()
	a := e.NewArena()
	x := a.Alloc(100)
	y := a.AllocUninit(200)
	if len(x) != 100 || cap(x) != 100 || len(y) != 200 {
		t.Fatalf("lengths %d/%d, caps %d", len(x), len(y), cap(x))
	}
	if &y[0] != &a.bufs[0][100] {
		t.Fatal("consecutive small tensors do not share a slab")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("Alloc returned a non-zero element")
		}
	}
	big := a.Alloc(slabFloats + 1)
	huge := a.AllocUninit(maxBucket + 1)
	if len(big) != slabFloats+1 || len(huge) != maxBucket+1 {
		t.Fatal("oversize lengths")
	}
	if got := e.Stats().PoolOutstanding; got != 2 {
		t.Fatalf("%d pooled buffers out, want a slab and the oversize buffer", got)
	}
	a.Release()
	a.Release() // idempotent
	st := e.Stats()
	want := ArenaActivity{
		Runs: 1, BytesServed: 4 * (300 + slabFloats + 1 + maxBucket + 1),
		Oversize: 2, HeapFallbacks: 1,
	}
	want.HighWaterBytes = want.BytesServed
	if st.PoolOutstanding != 0 || st.Arena != want {
		t.Fatalf("after release: outstanding %d, arena %+v, want %+v", st.PoolOutstanding, st.Arena, want)
	}
	if !math.IsNaN(float64(x[0])) || !math.IsNaN(float64(big[0])) {
		t.Fatal("released buffers were not poisoned")
	}
	// The next run reuses the slab: no fresh pool allocation.
	hits := st.PoolHits
	b := e.NewArena()
	if z := b.Alloc(10); z[0] != 0 {
		t.Fatal("a reused slab was not zeroed by Alloc")
	}
	b.Release()
	if e.Stats().PoolHits != hits+1 {
		t.Fatal("the second run's slab missed the pool")
	}
}

// TestArenaBudget pins the arena's pool budget: once a run has drawn
// arenaMaxBytes of slabs, further tensors come from the heap, so one run
// cannot pin more of the pool than the pool could keep idle.
func TestArenaBudget(t *testing.T) {
	e := New(1)
	defer e.Close()
	a := e.NewArena()
	slabs := arenaMaxBytes / (slabFloats * 4)
	for i := 0; i < slabs+3; i++ {
		a.AllocUninit(slabFloats)
	}
	if got := e.Stats().PoolOutstanding; got != int64(slabs) {
		t.Fatalf("%d slabs drawn from the pool, want %d", got, slabs)
	}
	a.Release()
	if st := e.Stats(); st.PoolOutstanding != 0 || st.Arena.HeapFallbacks != 3 {
		t.Fatalf("after release: %+v", st)
	}
}

// TestArenaConcurrent allocates from many goroutines (a run's encoder
// branches share their arena): every slice is disjoint from every other.
func TestArenaConcurrent(t *testing.T) {
	e := New(4)
	defer e.Close()
	a := e.NewArena()
	const goroutines, per = 8, 200
	got := make([][][]float32, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf := a.AllocUninit(1 + (g*per+i)%700)
				for j := range buf {
					buf[j] = float32(g*per + i)
				}
				got[g] = append(got[g], buf)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, buf := range got[g] {
			for _, v := range buf {
				if v != float32(g*per+i) {
					t.Fatalf("allocation %d of goroutine %d overlaps another", i, g)
				}
			}
		}
	}
	a.Release()
	if st := e.Stats(); st.PoolOutstanding != 0 || st.Arena.Runs != 1 {
		t.Fatalf("after release: %+v", st)
	}
}

// TestArenaNilEngine: on a nil engine the arena still serves (plain
// allocations) and counts nothing.
func TestArenaNilEngine(t *testing.T) {
	var e *Engine
	a := e.NewArena()
	if buf := a.Alloc(slabFloats + 5); len(buf) != slabFloats+5 {
		t.Fatal("nil-engine arena length")
	}
	a.Release()
}
