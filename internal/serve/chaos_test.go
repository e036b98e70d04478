package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmbench/internal/engine"
)

// checkGoroutinesReturn takes the goroutine count now — once the default
// engine, whose workers live for the process, exists — and registers a
// cleanup that runs after every cleanup registered later (the server's
// Close and ts.Close): it closes the client's idle connections and fails
// unless the count is back at that baseline within 5 s.
func checkGoroutinesReturn(t *testing.T) {
	t.Helper()
	engine.Default()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines 5 s after shutdown, %d before the server started:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestChaosServerSurvivesSustainedFaultInjection is the fault-injection
// acceptance test: with panics, admission failures and queue stalls
// injected at every compiled-in site, a burst of mixed traffic must
// leave the server (a) alive and answering, (b) still serving healthy
// requests with 200s, (c) shedding and failing the rest with the
// documented statuses only, and (d) with balanced engine pool
// accounting — zero pooled buffers leaked across every recovered panic
// — and a /v1/stats body that stays consistent.
func TestChaosServerSurvivesSustainedFaultInjection(t *testing.T) {
	withFaults(t, "engine.chunk=panic/every=997,"+
		"runner.run=panic/every=7,"+
		"jobs.admit=fail/every=11,"+
		"jobs.dequeue=delay:1ms/every=3")
	// NaN-poison freed pool buffers: a use-after-Put anywhere in the
	// panic-unwind paths would corrupt a healthy request's numbers and
	// fail it loudly instead of passing silently.
	engine.SetDebug(true)
	t.Cleanup(func() { engine.SetDebug(false) })
	checkGoroutinesReturn(t)
	// Two pool workers: each eager job fans out onto the shared compute
	// engine anyway, and bounding the pool keeps the -race schedule from
	// oversubscribing the machine (the suite is CI's chaos smoke step).
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, QuarantineThreshold: 3})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})

	// Mixed traffic: analytic runs across batch sizes (distinct
	// fingerprints) plus eager runs across seeds (one fingerprint, so the
	// quarantine may legitimately engage mid-test). Every config is a
	// distinct cache key, so each request is real work, not a cache hit.
	const clients = 24
	statuses := make([]int, clients)
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			if i%6 == 0 {
				// A handful of eager runs exercise real kernels (and the
				// buffer pool) under injection; the analytic majority keeps
				// the test fast under -race.
				body = fmt.Sprintf(`{"workload":"avmnist","batch":1,"eager":true,"seed":%d}`, i+1)
			} else {
				body = fmt.Sprintf(`{"workload":"mmimdb","batch":%d}`, i+1)
			}
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: server unreachable: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	for i, st := range statuses {
		switch st {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusUnprocessableEntity:
			counts[st]++
		default:
			t.Fatalf("request %d: unexpected status %d (%s)", i, st, bodies[i])
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under fault injection (statuses: %v): server must keep serving healthy requests", counts)
	}
	if counts[http.StatusOK] == clients {
		t.Fatalf("every request succeeded: the fault plan never fired (statuses: %v)", counts)
	}

	// The server must still answer, and its accounting must be sane.
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.PoolOutstanding != 0 {
		t.Fatalf("pool_outstanding = %d, want 0: pooled buffers leaked across recovered panics", stats.Engine.PoolOutstanding)
	}
	fired := stats.Resilience.FaultsInjected
	if fired["runner.run"] == 0 {
		t.Fatalf("faults_injected = %v: the runner.run panic rule never fired", fired)
	}
	if stats.Resilience.PanicsRecovered == 0 {
		t.Fatal("panics_recovered = 0 under a panic-injection plan")
	}
	if stats.Resilience.ShedOverload == 0 && fired["jobs.admit"] > 0 {
		t.Fatal("injected admission failures fired but shed_overload is 0")
	}
	// Consistency: every submitted job landed in exactly one terminal
	// bucket or is still tracked; none vanished.
	total := 0
	for _, n := range stats.Jobs {
		total += n
	}
	if total == 0 {
		t.Fatal("stats.jobs is empty after a burst of real executions")
	}
	if stats.Requests < clients {
		t.Fatalf("requests = %d, want >= %d", stats.Requests, clients)
	}

	// A healthy config still round-trips after the storm (fault plan is
	// still active; pick a fresh analytic config and tolerate its
	// scheduled faults by retrying a few times).
	ok := false
	for attempt := 0; attempt < 5 && !ok; attempt++ {
		resp, _ := post(t, ts.URL+"/v1/run", `{"workload":"mosei","batch":3}`, nil)
		ok = resp.StatusCode == http.StatusOK
	}
	if !ok {
		t.Fatal("server stopped serving healthy requests after the fault storm")
	}
}

// TestGracefulShutdownUnderLoad: Shutdown with requests in flight and
// queued must let in-flight runs finish (200), shed everything still
// queued with 503, and leave the engine's pooled-buffer accounting
// balanced.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	// Stall every dequeue so the queue stays backed up long enough for
	// Shutdown to land while work is pending. Batching is disabled:
	// this test needs every request to be its own pool job so some are
	// still QUEUED when Shutdown lands (the batcher would merge the
	// burst into one job and leave nothing to shed).
	withFaults(t, "jobs.dequeue=delay:50ms")
	checkGoroutinesReturn(t)
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, MaxBatch: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	const clients = 8
	statuses := make([]int, clients)
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds: distinct cache keys, so every request is a
			// real pool job exercising the buffer pool (eager kernels).
			body := fmt.Sprintf(`{"workload":"avmnist","batch":2,"eager":true,"seed":%d}`, i+1)
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 512)
			n, _ := resp.Body.Read(buf)
			statuses[i], bodies[i] = resp.StatusCode, string(buf[:n])
		}(i)
	}

	// Let the first jobs reach the workers, then pull the plug.
	time.Sleep(120 * time.Millisecond)
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	var done, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			done++
		case http.StatusServiceUnavailable:
			shed++
			if !strings.Contains(bodies[i], "shut down") && !strings.Contains(bodies[i], "queue full") {
				t.Fatalf("request %d: 503 body %q names neither shutdown nor a full queue", i, bodies[i])
			}
		default:
			t.Fatalf("request %d: status %d (%s), want 200 or 503", i, st, bodies[i])
		}
	}
	if done == 0 {
		t.Fatalf("no in-flight request finished: shutdown must drain runners, not kill them (statuses %v)", statuses)
	}
	if shed == 0 {
		t.Fatalf("no queued request was shed with 503 (statuses %v)", statuses)
	}

	// The mux still serves reads after pool shutdown; accounting must be
	// balanced: nothing running, nothing queued, no pooled buffer leaked.
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.PoolOutstanding != 0 {
		t.Fatalf("pool_outstanding = %d after shutdown, want 0", stats.Engine.PoolOutstanding)
	}
	if stats.Jobs["running"] != 0 || stats.Jobs["queued"] != 0 {
		t.Fatalf("jobs still pending after shutdown: %v", stats.Jobs)
	}
	if stats.Resilience.ShedShutdown == 0 && stats.Resilience.ShedOverload == 0 {
		t.Fatalf("no shed recorded during shutdown under load: %+v", stats.Resilience)
	}
}
