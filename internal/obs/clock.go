package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall time for components whose behaviour depends on
// it — queue-wait measurement, admission deadlines, the continuous
// batcher's accumulation window. Production code uses RealClock;
// time-sensitive tests inject a FakeClock and advance it explicitly, so
// they assert exact durations instead of sleeping and hoping.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	// After behaves like time.After against this clock.
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

// FakeClock is a manually advanced Clock for tests. It only moves when
// Advance is called; After timers fire (in Advance's goroutine) once the
// clock passes their deadline.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since measures against the fake instant.
func (c *FakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// After returns a channel that fires when the clock has advanced d past
// the current instant. A non-positive d fires immediately, matching
// time.After's behaviour closely enough for scheduling code.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, &fakeTimer{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward and fires every timer whose deadline
// has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var fire []*fakeTimer
	keep := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(now) {
			fire = append(fire, t)
		} else {
			keep = append(keep, t)
		}
	}
	c.timers = keep
	c.mu.Unlock()
	for _, t := range fire {
		t.ch <- now
	}
}

// Timers reports the number of pending After timers — tests use it to
// wait until the code under test is parked on the clock before
// advancing it.
func (c *FakeClock) Timers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}
