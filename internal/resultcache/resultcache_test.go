package resultcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		a, b map[string]string
		same bool
	}{
		{
			name: "order independent",
			a:    map[string]string{"workload": "avmnist", "device": "2080ti", "batch": "32"},
			b:    map[string]string{"batch": "32", "device": "2080ti", "workload": "avmnist"},
			same: true,
		},
		{
			name: "value change changes key",
			a:    map[string]string{"workload": "avmnist", "batch": "32"},
			b:    map[string]string{"workload": "avmnist", "batch": "64"},
			same: false,
		},
		{
			name: "field name is part of the key",
			a:    map[string]string{"a": "x"},
			b:    map[string]string{"b": "x"},
			same: false,
		},
		{
			name: "separator chars in values cannot collide",
			a:    map[string]string{"a": "x;b=y"},
			b:    map[string]string{"a": "x", "b": "y"},
			same: false,
		},
		{
			name: "escape char in values cannot collide",
			a:    map[string]string{"a": `x\`, "b": "y"},
			b:    map[string]string{"a": `x\;b=y`},
			same: false,
		},
		{
			name: "empty values are distinct fields",
			a:    map[string]string{"a": "", "b": ""},
			b:    map[string]string{"a": ""},
			same: false,
		},
		{
			name: "empty maps agree",
			a:    map[string]string{},
			b:    nil,
			same: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := Key(tc.a), Key(tc.b)
			if (ka == kb) != tc.same {
				t.Fatalf("Key(%v) = %q, Key(%v) = %q; want same=%v", tc.a, ka, tc.b, kb, tc.same)
			}
		})
	}
}

func TestKeyDeterministic(t *testing.T) {
	m := map[string]string{"z": "1", "a": "2", "m": "3", "k": "4"}
	want := Key(m)
	for i := 0; i < 50; i++ {
		if got := Key(m); got != want {
			t.Fatalf("Key unstable: %q vs %q", got, want)
		}
	}
	if want != "a=2;k=4;m=3;z=1" {
		t.Fatalf("canonical form %q", want)
	}
}

func TestDoCachesAndCounts(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func() (any, int64, error) { calls++; return "v", 1, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Do("k", compute)
		if err != nil || v != "v" {
			t.Fatalf("Do: %v %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 4 || s.Misses != 1 || s.Executions != 1 || s.Coalesced != 0 {
		t.Fatalf("stats %+v", s)
	}
	if got := s.HitRate(); got != 0.8 {
		t.Fatalf("hit rate %f", got)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, int64, error) { calls++; return nil, 0, boom }
	if _, err := c.Do("k", fail); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if _, err := c.Do("k", fail); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("failed compute cached (%d calls)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: %d entries", c.Len())
	}
}

func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	const callers = 64
	var mu sync.Mutex
	executions := 0
	gate := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("same", func() (any, int64, error) {
				mu.Lock()
				executions++
				mu.Unlock()
				<-gate // hold every concurrent caller in the window
				return "shared", 6, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until every caller has registered its miss (the executor is
	// parked on the gate, so all others must coalesce), then release.
	for c.Stats().Misses < callers {
	}
	close(gate)
	wg.Wait()

	if executions != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests, want 1", executions, callers)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Executions != 1 {
		t.Fatalf("stats.Executions = %d", s.Executions)
	}
	if s.Hits+s.Coalesced != callers-1 {
		t.Fatalf("hits %d + coalesced %d != %d", s.Hits, s.Coalesced, callers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(100)
	put := func(k string, size int64) {
		c.Do(k, func() (any, int64, error) { return k, size, nil })
	}
	put("a", 40)
	put("b", 40)
	c.Get("a") // refresh a: b becomes LRU
	put("c", 40)

	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry a evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("new entry c missing")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", s.Evictions)
	}
	if s.Bytes != 80 {
		t.Fatalf("bytes %d, want 80", s.Bytes)
	}
}

// Grow charges memory a value acquired after insertion: the grown entry
// counts as used, its least recently used neighbours are evicted first,
// an entry that outgrows the whole budget goes too, and a value that is
// no longer the resident one is never charged.
func TestGrowChargesAndEvicts(t *testing.T) {
	c := New(100)
	vals := map[string]*int{"a": new(int), "b": new(int), "c": new(int)}
	put := func(k string, size int64) {
		c.Do(k, func() (any, int64, error) { return vals[k], size, nil })
	}
	want := func(step string, bytes, grown int64, evictions uint64, resident ...string) {
		t.Helper()
		s := c.Stats()
		if s.Bytes != bytes || s.Grown != grown || s.Evictions != evictions || s.Entries != len(resident) {
			t.Fatalf("%s: %+v, want bytes %d grown %d evictions %d entries %v", step, s, bytes, grown, evictions, resident)
		}
		for _, k := range resident {
			if _, ok := c.items[k]; !ok {
				t.Fatalf("%s: %s is not resident", step, k)
			}
		}
	}
	put("a", 30)
	put("b", 30)
	put("c", 30)
	c.Grow("a", vals["a"], 5)
	want("within budget", 95, 5, 0, "a", "b", "c")

	// a is the oldest insertion but growing used it: b goes first.
	c.Grow("a", vals["a"], 10)
	want("grown past the budget", 75, 15, 1, "a", "c")

	// A stale instance under a live key, and an evicted key, are no-ops.
	c.Grow("a", new(int), 50)
	c.Grow("b", vals["b"], 50)
	want("stale and evicted growers", 75, 15, 1, "a", "c")

	// Evicting a grown entry takes its growth out of the figure.
	c.Grow("c", vals["c"], 60)
	want("a evicted by c's growth", 90, 60, 2, "c")

	// Alone and over the whole budget: not cacheable, as in Do.
	c.Grow("c", vals["c"], 20)
	want("outgrew the budget", 0, 0, 3)
}

func TestOversizeValueNotCached(t *testing.T) {
	c := New(10)
	calls := 0
	big := func() (any, int64, error) { calls++; return "big", 100, nil }
	c.Do("k", big)
	c.Do("k", big)
	if calls != 2 {
		t.Fatalf("oversize value was cached (%d calls)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("%d entries", c.Len())
	}
}

func TestZeroCapacityStillDedupes(t *testing.T) {
	c := New(0)
	var mu sync.Mutex
	executions := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do("k", func() (any, int64, error) {
				mu.Lock()
				executions++
				mu.Unlock()
				<-gate
				return 1, 1, nil
			})
		}()
	}
	for c.Stats().Misses < 8 {
	}
	close(gate)
	wg.Wait()
	if executions != 1 {
		t.Fatalf("%d executions, want 1 via singleflight", executions)
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestManyKeysConcurrent(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d", j%10)
				v, err := c.Do(key, func() (any, int64, error) { return key, 2, nil })
				if err != nil || v != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 10 {
		t.Fatalf("%d entries, want 10", c.Len())
	}
}

func TestPanickingComputeDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Do swallowed the compute panic")
			}
		}()
		c.Do("k", func() (any, int64, error) { panic("kernel crash") })
	}()
	// The key must be computable again — no wedged in-flight entry.
	done := make(chan any, 1)
	go func() {
		v, err := c.Do("k", func() (any, int64, error) { return "ok", 2, nil })
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v != "ok" {
			t.Fatalf("value %v, want ok", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("key wedged after a panicking compute")
	}
}

func TestCoalescedWaiterRetriesOnLeaderFailure(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var executions atomic.Int64

	var wg sync.WaitGroup
	leaderErr := errors.New("leader cancelled")
	results := make([]error, 3)
	values := make([]any, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		values[0], results[0] = c.Do("k", func() (any, int64, error) {
			executions.Add(1)
			close(leaderIn)
			<-release
			return nil, 0, leaderErr
		})
	}()
	<-leaderIn
	for i := 1; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			values[i], results[i] = c.Do("k", func() (any, int64, error) {
				executions.Add(1)
				return "recomputed", 10, nil
			})
		}()
	}
	// Let the followers coalesce onto the in-flight leader, then fail it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if !errors.Is(results[0], leaderErr) {
		t.Fatalf("leader error %v, want its own failure", results[0])
	}
	for i := 1; i < 3; i++ {
		if results[i] != nil {
			t.Fatalf("waiter %d inherited the leader's failure: %v", i, results[i])
		}
		if values[i] != "recomputed" {
			t.Fatalf("waiter %d value %v, want recomputed", i, values[i])
		}
	}
	// One of the waiters re-led the computation; the other hit the fresh
	// cache entry or coalesced onto the retry.
	if got := executions.Load(); got < 2 || got > 3 {
		t.Fatalf("%d executions, want 2 or 3 (leader + at most both retries)", got)
	}
	if v, ok := c.Get("k"); !ok || v != "recomputed" {
		t.Fatal("successful retry was not cached")
	}
}

func TestErrorResultNotShared(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	v, err := c.Do("k", func() (any, int64, error) { return 7, 1, nil })
	if err != nil || v != 7 {
		t.Fatalf("second Do got (%v, %v), want (7, nil): error was retained", v, err)
	}
}
