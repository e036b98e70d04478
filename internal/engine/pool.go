package engine

import (
	"math"
	"sync"
	"sync/atomic"
)

// Buffer-pool sizing. Requests are rounded up to a power-of-two bucket;
// anything above maxBucket elements bypasses the pool (the panels of one
// paper-scale GEMM operand can be tens of MB — caching those would pin
// memory for rare shapes).
const (
	minBucket    = 1 << 8  // 256 floats (1 KiB)
	maxBucket    = 1 << 22 // 4 Mi floats (16 MiB)
	maxPerBucket = 16      // retained free buffers per bucket
	numBuckets   = 23 - 8  // log2(maxBucket) - log2(minBucket) + 1
	// maxPoolBytes bounds the total bytes of idle buffers an engine
	// retains, so a one-time burst of large scratch cannot pin memory
	// for the life of a long-running server.
	maxPoolBytes = 64 << 20
)

// bufPool is a size-bucketed free list of float32 scratch buffers, one
// per engine: every goroutine of a run — concurrent encoder branches
// included — draws its scratch here, under mu.
//
// Ownership rules: Get hands out a buffer that the caller owns until it
// calls Put; after Put the slice must not be touched again. Pooled
// buffers must never be wrapped in a tensor.FromSlice that escapes the
// operator call (tensors own their storage forever — see the README's
// "Execution engine" section). Operator scratch that a backward closure
// captures is allocated normally, not pooled.
type bufPool struct {
	mu       sync.Mutex
	buckets  [numBuckets][][]float32
	retained int64 // idle bytes currently held across all buckets

	hits        atomic.Int64
	misses      atomic.Int64
	bytesReused atomic.Int64
	// outstanding counts checked-out pool-range buffers not yet
	// returned (bypass buffers beyond maxBucket are excluded on both
	// sides). A quiescent engine must read 0 — the leak invariant the
	// chaos suite asserts under fault injection.
	outstanding atomic.Int64
}

// debugPoison, when enabled, fills buffers with NaN on Put so any
// stale read through a retained slice surfaces immediately in results
// (NaN propagates through every kernel). Get always zeroes the region
// it returns, so poisoning costs nothing in correctness.
var debugPoison atomic.Bool

// SetDebug toggles poison-on-free for every engine's buffer pool.
func SetDebug(on bool) { debugPoison.Store(on) }

// bucketIndex returns the free-list index for a capacity that is an
// exact pool bucket size, or -1.
func bucketIndex(capacity int) int {
	if capacity < minBucket || capacity > maxBucket || capacity&(capacity-1) != 0 {
		return -1
	}
	idx := 0
	for c := capacity; c > minBucket; c >>= 1 {
		idx++
	}
	return idx
}

// bucketSize rounds n up to the nearest pool bucket, or returns -1 when
// n is out of pool range.
func bucketSize(n int) int {
	if n > maxBucket {
		return -1
	}
	b := minBucket
	for b < n {
		b <<= 1
	}
	return b
}

// Get returns a zeroed scratch slice of length n drawn from the pool
// when possible. The caller must return it with Put once the operator
// call no longer references it.
func (e *Engine) Get(n int) []float32 {
	buf := e.GetUninit(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// GetUninit is Get without the zero fill, for callers that overwrite
// every element before reading any (GEMM panels, row-wise softmax
// scratch). Under SetDebug poisoning, a violation of that contract
// surfaces as NaNs in results instead of silently reading zeros.
func (e *Engine) GetUninit(n int) []float32 {
	buf, _ := e.GetUninitInfo(n)
	return buf
}

// GetUninitInfo is GetUninit plus whether the request was satisfied from
// the pool's free list (a pool hit) — callers that keep their own
// activity counters (the GEMM pack-panel stats) use it to report hit
// rates without re-deriving them from global pool deltas.
func (e *Engine) GetUninitInfo(n int) ([]float32, bool) {
	if e == nil || e.st == nil {
		return make([]float32, n), false
	}
	pool := &e.st.pool
	b := bucketSize(n)
	if b < 0 {
		pool.misses.Add(1)
		return make([]float32, n), false
	}
	pool.outstanding.Add(1)
	pool.mu.Lock()
	idx := bucketIndex(b)
	list := pool.buckets[idx]
	if len(list) == 0 {
		pool.mu.Unlock()
		pool.misses.Add(1)
		return make([]float32, b)[:n], false
	}
	buf := list[len(list)-1]
	pool.buckets[idx] = list[:len(list)-1]
	pool.retained -= int64(cap(buf)) * 4
	pool.mu.Unlock()
	pool.hits.Add(1)
	pool.bytesReused.Add(int64(n) * 4)
	return buf[:n], true
}

// Put returns a buffer obtained from Get to the pool. Putting foreign
// slices is a silent no-op (their capacity is not a bucket size).
func (e *Engine) Put(buf []float32) {
	if e == nil || e.st == nil || buf == nil {
		return
	}
	pool := &e.st.pool
	idx := bucketIndex(cap(buf))
	if idx < 0 {
		return
	}
	pool.outstanding.Add(-1)
	buf = buf[:cap(buf)]
	if debugPoison.Load() {
		nan := float32(math.NaN())
		for i := range buf {
			buf[i] = nan
		}
	}
	pool.mu.Lock()
	if len(pool.buckets[idx]) < maxPerBucket &&
		pool.retained+int64(cap(buf))*4 <= maxPoolBytes {
		pool.buckets[idx] = append(pool.buckets[idx], buf)
		pool.retained += int64(cap(buf)) * 4
	}
	pool.mu.Unlock()
}
