package engine

import "testing"

// TestScratchCheckoutRelease verifies that buffers drawn through a
// Scratch all return to the pool on Release, are reused by the next
// checkout, and count as attention scratch on the engine.
func TestScratchCheckoutRelease(t *testing.T) {
	e := New(1)
	defer e.Close()
	sc := e.NewScratch()
	a := sc.GetUninit(minBucket)
	b := sc.GetUninit(2 * minBucket)
	if len(a) != minBucket || len(b) != 2*minBucket {
		t.Fatalf("scratch lengths %d, %d", len(a), len(b))
	}
	sc.Release()
	base := e.Stats()
	sc2 := e.NewScratch()
	sc2.GetUninit(minBucket)
	sc2.GetUninit(2 * minBucket)
	sc2.Release()
	now := e.Stats()
	if got := now.PoolHits - base.PoolHits; got != 2 {
		t.Fatalf("second checkout hit the pool %d times, want 2", got)
	}
	if got, want := now.Attention, (AttentionActivity{ScratchCheckouts: 4, ScratchBytes: 2 * 3 * minBucket * 4}); got != want {
		t.Fatalf("attention scratch counters %+v, want %+v", got, want)
	}
}

// TestScratchNilEngine pins the nil-engine path: plain allocation, and
// Release as a no-op.
func TestScratchNilEngine(t *testing.T) {
	var e *Engine
	sc := e.NewScratch()
	buf := sc.GetUninit(100)
	if len(buf) != 100 {
		t.Fatalf("nil-engine scratch length %d", len(buf))
	}
	sc.Release()
}

// TestScratchManyBuffers exercises growth past the inline backing array.
func TestScratchManyBuffers(t *testing.T) {
	e := New(1)
	defer e.Close()
	sc := e.NewScratch()
	for i := 0; i < 6; i++ {
		if got := sc.GetUninit(minBucket); len(got) != minBucket {
			t.Fatalf("buffer %d length %d", i, len(got))
		}
	}
	sc.Release()
	if len(sc.bufs) != 0 {
		t.Fatalf("scratch retained %d buffers after Release", len(sc.bufs))
	}
}
