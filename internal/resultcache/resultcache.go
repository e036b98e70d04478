// Package resultcache is a deterministic, config-keyed result cache for
// profiling reports. MMBench's analytic runs are pure functions of their
// configuration, so identical configs always produce identical results
// and can be served from memory: the cache combines canonicalized config
// keys, LRU eviction under a byte budget, and singleflight deduplication
// so N concurrent identical requests cost exactly one execution.
package resultcache

import (
	"container/list"
	"sort"
	"strings"
	"sync"
)

// Key canonicalizes a config into a cache key. Fields are joined in
// sorted-by-name order so callers can supply them in any order, and both
// names and values are escaped so no two distinct field sets can collide
// on the separator characters.
func Key(fields map[string]string) string {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(escape(name))
		b.WriteByte('=')
		b.WriteString(escape(fields[name]))
	}
	return b.String()
}

// escape protects the key separators ('=', ';') and the escape
// character itself.
func escape(s string) string {
	if !strings.ContainsAny(s, `=;\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '=', ';', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Stats are the cache's monotonic counters plus a point-in-time size.
type Stats struct {
	// Hits served from the cache without any work.
	Hits uint64 `json:"hits"`
	// Misses that triggered (or joined) a computation.
	Misses uint64 `json:"misses"`
	// Executions is how many computations actually ran; Misses minus
	// Executions is the work saved by singleflight coalescing.
	Executions uint64 `json:"executions"`
	// Coalesced misses joined an in-flight execution of the same key.
	Coalesced uint64 `json:"coalesced"`
	// Evictions under the byte budget.
	Evictions uint64 `json:"evictions"`

	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity_bytes"`
}

// HitRate is the fraction of lookups served from cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key   string
	value any
	bytes int64 // current cost, growth included
}

// call is one in-flight computation other callers can join. ok flips
// true only when the leader produced a cacheable value: joiners treat
// anything else (error, panic, cancellation) as "no result" and retry
// with their own computation instead of inheriting a failure that may
// belong to the leader alone (its context, its injected fault).
type call struct {
	done  chan struct{}
	value any
	ok    bool
}

// Cache is a byte-budgeted LRU with singleflight deduplication. The
// zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element
	inflight map[string]*call
	stats    Stats
}

// New builds a cache holding at most capacityBytes of values (as
// reported by each computation). capacityBytes <= 0 disables caching but
// keeps singleflight deduplication.
func New(capacityBytes int64) *Cache {
	return &Cache{
		capacity: capacityBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Do returns the cached value for key, or runs compute to produce it.
// compute returns the value plus its size in bytes for the LRU budget.
// Concurrent calls with the same key share one successful compute
// invocation. Failures never poison the key: an error, panic or
// cancellation is returned (or re-raised) only on the caller whose
// compute produced it, while coalesced waiters retry with their own
// compute — a request cancelled by its client must not fail the
// neighbours that happened to coalesce onto it, and a panicking
// compute must not wedge the key forever. Values must be treated as
// immutable by every caller, since one value is handed to many.
func (c *Cache) Do(key string, compute func() (any, int64, error)) (any, error) {
	first := true
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			v := el.Value.(*entry).value
			c.mu.Unlock()
			return v, nil
		}
		if first {
			// Retries after a failed leader are the same logical lookup,
			// not a new miss.
			c.stats.Misses++
			first = false
		}
		if cl, ok := c.inflight[key]; ok {
			c.stats.Coalesced++
			c.mu.Unlock()
			<-cl.done
			if cl.ok {
				return cl.value, nil
			}
			continue // leader failed: compete to lead the retry
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.stats.Executions++
		c.mu.Unlock()

		var value any
		var bytes int64
		var err error
		completed := false
		// The cleanup must run even when compute panics (the panic then
		// unwinds to this caller): the in-flight entry is removed and the
		// waiters are released either way, so no key is ever wedged.
		func() {
			defer func() {
				cl.value, cl.ok = value, completed && err == nil
				c.mu.Lock()
				delete(c.inflight, key)
				if cl.ok {
					c.add(key, value, bytes)
				}
				c.mu.Unlock()
				close(cl.done)
			}()
			value, bytes, err = compute()
			completed = true
		}()
		return value, err
	}
}

// Get looks up a key without computing.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).value, true
}

// add inserts under the byte budget, evicting LRU entries as needed.
// Values larger than the whole budget are not cached. Caller holds mu.
func (c *Cache) add(key string, value any, bytes int64) {
	if bytes > c.capacity {
		return
	}
	if el, ok := c.items[key]; ok {
		// A racing Get/Do pair can't insert twice (singleflight), but be
		// defensive: replace in place.
		old := el.Value.(*entry)
		c.bytes += bytes - old.bytes
		old.value, old.bytes = value, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, value: value, bytes: bytes})
		c.bytes += bytes
	}
	c.evict()
}

// evict drops least recently used entries until the cache is within its
// budget. Caller holds mu.
func (c *Cache) evict() {
	for c.bytes > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.stats.Evictions++
	}
}

// Grow adds delta bytes to the cost of key's entry, for a value that
// acquires memory after it was inserted (a model packing its weights on
// first use), and then evicts least recently used entries while the
// cache is over budget. Growing counts as a use, so the neighbours go
// first; an entry that has outgrown the whole budget goes last, as Do
// would not have cached it. It is a no-op unless the entry still holds
// value (a pointer, compared by identity): a value that was evicted, or
// evicted and recomputed as another instance, stays alive and uncharged
// until its last user drops it.
func (c *Cache) Grow(key string, value any, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.value != value {
		return
	}
	e.bytes += delta
	c.bytes += delta
	c.ll.MoveToFront(el)
	c.evict()
}

// Values returns the resident values, most recently used first, for an
// owner that reports on what its values hold.
func (c *Cache) Values() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]any, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).value)
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.Capacity = c.capacity
	return s
}
