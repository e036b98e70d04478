package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mmbench/internal/obs"
)

// tickClock is an obs.FakeClock that moves only when it is read: each
// Now advances it by the next step of 1, 2, 4, 8… ms and logs the
// reading, so every span between two readings has its own known length.
type tickClock struct {
	*obs.FakeClock
	mu    sync.Mutex
	step  time.Duration
	reads []time.Time
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.FakeClock.Advance(c.step)
	c.step *= 2
	now := c.FakeClock.Now()
	c.reads = append(c.reads, now)
	return now
}

func (c *tickClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// reset restarts the step sequence and the log before a request.
func (c *tickClock) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step, c.reads = time.Millisecond, nil
}

// timingMetric is one Server-Timing entry.
type timingMetric struct {
	name, desc string
	dur        float64
}

// parseServerTiming splits a Server-Timing value into its entries.
func parseServerTiming(t *testing.T, v string) []timingMetric {
	t.Helper()
	var ms []timingMetric
	for _, entry := range strings.Split(v, ", ") {
		parts := strings.Split(entry, ";")
		m := timingMetric{name: parts[0]}
		for _, p := range parts[1:] {
			k, val, _ := strings.Cut(p, "=")
			switch k {
			case "dur":
				d, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("Server-Timing %q: %v", v, err)
				}
				m.dur = d
			case "desc":
				m.desc = strings.Trim(val, `"`)
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// TestServerTimingSpansSumToTheHandlerWall: a /v1/run 200 carries one
// Server-Timing header whose decode, key, entry and write spans are the
// gaps between the handler's five clock readings, so they sum to its wall
// from its first reading to the last, taken before WriteHeader — for the
// miss that executes (desc "execution") and for the hit that follows
// (desc "hit"). After the spans come the entry's stage walls, in forward
// order, equal to the body's stage_latency_ms, and the hit's body is the
// miss's byte for byte.
func TestServerTimingSpansSumToTheHandlerWall(t *testing.T) {
	clock := &tickClock{FakeClock: obs.NewFakeClock(time.Unix(0, 0))}
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, Clock: clock})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	var bodies []string
	for _, want := range []string{"execution", "hit"} {
		clock.reset()
		resp, body := post(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":2,"eager":true,"seed":1}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", want, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
		if n := len(resp.Header.Values("Server-Timing")); n != 1 {
			t.Fatalf("%s: %d Server-Timing headers, want one", want, n)
		}
		metrics := parseServerTiming(t, resp.Header.Get("Server-Timing"))
		clock.mu.Lock()
		reads := clock.reads
		clock.mu.Unlock()
		if len(reads) != 5 {
			t.Fatalf("%s: the handler read the clock %d times, want 5", want, len(reads))
		}
		var sum float64
		for i, name := range []string{"decode", "key", "entry", "write"} {
			m := metrics[i]
			gap := float64(reads[i+1].Sub(reads[i])) / 1e6
			if m.name != name || m.dur != gap {
				t.Errorf("%s: span %d is %s %.3f ms, want %s %.3f ms", want, i, m.name, m.dur, name, gap)
			}
			sum += m.dur
		}
		if wall := float64(reads[4].Sub(reads[0])) / 1e6; sum != wall {
			t.Errorf("%s: spans sum to %.3f ms, the handler's wall is %.3f ms", want, sum, wall)
		}
		if metrics[2].desc != want {
			t.Errorf("entry desc %q, want %q", metrics[2].desc, want)
		}

		var run struct {
			StageLatencyMs map[string]float64 `json:"stage_latency_ms"`
		}
		if err := json.Unmarshal([]byte(body), &run); err != nil {
			t.Fatal(err)
		}
		stages := metrics[4:]
		if len(stages) != 3 {
			t.Fatalf("%s: %d stage entries after the spans, want 3: %+v", want, len(stages), stages)
		}
		for i, name := range []string{"encoder", "fusion", "head"} {
			m := stages[i]
			if ms := run.StageLatencyMs[name]; m.name != name || math.Abs(m.dur-ms) > 0.0005001 || m.desc != "at the producing execution" {
				t.Errorf("stage %d: %+v, want %s %.3f ms at the producing execution", i, m, name, ms)
			}
		}
	}
	if bodies[0] != bodies[1] {
		t.Error("the hit's body differs from the miss's")
	}
}

// TestServerTimingFormat pins serverTiming's text: microsecond-rounded
// milliseconds, the hit desc, and no stage entries without stage walls.
func TestServerTimingFormat(t *testing.T) {
	spans := [4]time.Duration{0, 999 * time.Nanosecond, 1234567890 * time.Nanosecond, 20 * time.Microsecond}
	got := serverTiming(spans, false, nil)
	want := `decode;dur=0.000, key;dur=0.001, entry;dur=1234.568;desc="hit", write;dur=0.020`
	if got != want {
		t.Errorf("serverTiming = %s, want %s", got, want)
	}
}
