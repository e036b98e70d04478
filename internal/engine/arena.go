package engine

import (
	"sync"
	"sync/atomic"
)

// Arena sizing. A slab is one pool bucket, large enough that a served
// paper-scale forward (≈ 3–22 MB of intermediates) needs a handful, well
// inside the bucket's maxPerBucket free list; a run draws at most
// arenaMaxBytes from the pool, the most the pool could keep idle between
// runs anyway (maxPoolBytes), and takes anything beyond it from the heap.
const (
	slabFloats    = 1 << 20 // 4 MiB of float32
	arenaMaxBytes = maxPoolBytes
)

// Arena is a run-scoped bump allocator: the generated inputs and the
// untaped intermediates of one eager run are carved out of slabs drawn
// from the engine's pool, and all of them are given back together by
// Release once the run has copied out what it returns. Between a run's
// first allocation and its Release nothing is freed, so the bytes an
// arena serves are the run's measured input and intermediate footprint
// (Stats().Arena.HighWaterBytes).
//
// An Arena is safe for concurrent use: a run's encoder branches allocate
// from it from their own goroutines. A tensor larger than one slab gets
// its own pooled buffer, or a heap one beyond the pool's largest bucket or
// the arena's pool budget; either way it is released with the run. After
// Release no slice the arena handed out may be touched again — under
// SetDebug the slabs come back NaN-poisoned, like every pooled buffer.
type Arena struct {
	e  *Engine
	mu sync.Mutex
	// slab is the current slab's unused tail.
	slab []float32
	// bufs are the pooled buffers (slabs and oversize) to Put on Release.
	bufs [][]float32
	// pooled is the bytes drawn from the pool so far, against arenaMaxBytes.
	pooled int64
	// served, oversize and heap are this run's share of ArenaActivity.
	served, oversize, heap int64
}

// ArenaActivity counts the engine's run-scoped arenas.
type ArenaActivity struct {
	// Runs counts released arenas: one per eager forward set that drew
	// its intermediates from an arena.
	Runs int64 `json:"runs"`
	// BytesServed is the total bytes of tensors handed out.
	BytesServed int64 `json:"bytes_served"`
	// HighWaterBytes is the most one run's arena served — a forward's
	// inputs and intermediates, all live until its Release.
	HighWaterBytes int64 `json:"high_water_bytes"`
	// Oversize counts tensors larger than a slab, each given a buffer of
	// its own; HeapFallbacks counts buffers (slabs or oversize) taken from
	// the heap instead of the pool — beyond its largest bucket, or past
	// the arena's pool budget.
	Oversize      int64 `json:"oversize"`
	HeapFallbacks int64 `json:"heap_fallbacks"`
}

// arenaCounters holds the counters behind ArenaActivity.
type arenaCounters struct {
	runs, bytes, highWater, oversize, heap atomic.Int64
}

// NewArena starts a run-scoped arena on this engine's pool. A nil engine
// is valid: every slab is a plain allocation and nothing is counted.
func (e *Engine) NewArena() *Arena { return &Arena{e: e} }

// Alloc returns a zeroed slice of n floats that stays valid until
// Release.
func (a *Arena) Alloc(n int) []float32 {
	buf := a.AllocUninit(n)
	clear(buf)
	return buf
}

// AllocUninit is Alloc without the zero fill, for callers that overwrite
// every element before reading any (see Engine.GetUninit).
func (a *Arena) AllocUninit(n int) []float32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.served += int64(n) * 4
	if n > slabFloats {
		a.oversize++
		return a.draw(n)
	}
	if n > len(a.slab) {
		a.slab = a.draw(slabFloats)
	}
	buf := a.slab[:n:n]
	a.slab = a.slab[n:]
	return buf
}

// draw takes n floats from the pool while the arena's budget allows, and
// from the heap otherwise. The caller holds mu.
func (a *Arena) draw(n int) []float32 {
	b := int64(bucketSize(n)) * 4
	if b <= 0 || a.pooled+b > arenaMaxBytes {
		a.heap++
		return make([]float32, n)
	}
	a.pooled += b
	buf := a.e.GetUninit(n)
	a.bufs = append(a.bufs, buf)
	return buf
}

// Release returns every pooled buffer the arena drew and records the run
// in the engine's Stats().Arena. Nothing the arena handed out may be used
// afterwards. Release is idempotent.
func (a *Arena) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, buf := range a.bufs {
		a.e.Put(buf)
		a.bufs[i] = nil
	}
	if act := a.e.act(); act != nil && a.served > 0 {
		c := &act.arena
		c.runs.Add(1)
		c.bytes.Add(a.served)
		c.oversize.Add(a.oversize)
		c.heap.Add(a.heap)
		storeMax(&c.highWater, a.served)
	}
	a.slab, a.bufs = nil, a.bufs[:0]
	a.pooled, a.served, a.oversize, a.heap = 0, 0, 0, 0
}
