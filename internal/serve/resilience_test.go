package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mmbench/internal/faultinject"
)

// withFaults configures a fault-injection plan for one test and
// restores the disabled state afterwards.
func withFaults(t *testing.T, plan string) {
	t.Helper()
	if err := faultinject.Configure(plan); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faultinject.Configure("") })
}

func post(t *testing.T, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// TestAdmissionFailureSheds503WithRetryAfter: injected pool exhaustion
// at the admission site must turn into 503 + Retry-After, not a queued
// request, and must surface in the resilience counters.
func TestAdmissionFailureSheds503WithRetryAfter(t *testing.T) {
	withFaults(t, "jobs.admit=fail")
	_, ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/run", `{"workload":"mmimdb"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Resilience.ShedOverload < 1 {
		t.Fatalf("shed_overload = %d, want >= 1", stats.Resilience.ShedOverload)
	}
	if got := stats.Resilience.FaultsInjected["jobs.admit"]; got < 1 {
		t.Fatalf("faults_injected[jobs.admit] = %d, want >= 1", got)
	}
}

// TestExpiredDeadlineSheds429: a 1 ms client deadline behind an
// injected 60 ms queue stall must be shed at dequeue (never run) and
// reported as 429 + Retry-After.
func TestExpiredDeadlineSheds429(t *testing.T) {
	withFaults(t, "jobs.dequeue=delay:60ms")
	_, ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/run", `{"workload":"mmimdb"}`,
		map[string]string{"X-Deadline-Ms": "1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Resilience.ShedExpired < 1 {
		t.Fatalf("shed_expired = %d, want >= 1", stats.Resilience.ShedExpired)
	}
	if stats.Jobs["shed"] < 1 {
		t.Fatalf("jobs shed = %d, want >= 1: the expired job must be shed, not run", stats.Jobs["shed"])
	}
	if stats.Jobs["done"] != 0 {
		t.Fatalf("jobs done = %d, want 0: an expired job must never run", stats.Jobs["done"])
	}
}

// TestInvalidDeadlineHeaderRejected: a malformed X-Deadline-Ms is the
// client's error, not a shed.
func TestInvalidDeadlineHeaderRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for _, bad := range []string{"nope", "-5", "0"} {
		resp, body := post(t, ts.URL+"/v1/run", `{"workload":"mmimdb"}`,
			map[string]string{"X-Deadline-Ms": bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Deadline-Ms=%q: status %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
	}
}

// TestQuarantineAfterRepeatedPanics: a config whose runs panic
// repeatedly is served 500 (run panicked) until the threshold, then
// 422 with the stored panic summary — even after the fault is gone —
// while other configs keep working. Every execution path recovers and
// counts its panics the same way: the analytic pool job, the batcher's
// merged forward (the default for eager misses) and the unbatched eager
// pool job.
func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		body     string
		maxBatch int
	}{
		{"analytic", `{"workload":"mmimdb","batch":8}`, 0},
		{"eager_batched", `{"workload":"avmnist","eager":true,"batch":2}`, 0},
		{"eager_unbatched", `{"workload":"avmnist","eager":true,"batch":2}`, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withFaults(t, "runner.run=panic")
			s := New(Options{Workers: 2, CacheBytes: 32 << 20, QuarantineThreshold: 3, MaxBatch: tc.maxBatch})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Close(context.Background())
			})

			body := tc.body
			for i := 0; i < 3; i++ {
				resp, raw := post(t, ts.URL+"/v1/run", body, nil)
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("panic run %d: status %d, want 500 (%s)", i, resp.StatusCode, raw)
				}
				if !strings.Contains(raw, "panicked") {
					t.Fatalf("panic run %d: body %q does not name the panic", i, raw)
				}
			}

			// The config is quarantined now: the fault can disappear (a healthy
			// binary would still crash on this config — the model is
			// deterministic) and requests still fail fast with the summary.
			faultinject.Configure("")
			resp, raw := post(t, ts.URL+"/v1/run", body, nil)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("quarantined: status %d, want 422 (%s)", resp.StatusCode, raw)
			}
			if !strings.Contains(raw, "quarantined") || !strings.Contains(raw, "faultinject") {
				t.Fatalf("422 body %q missing quarantine reason / stored panic summary", raw)
			}

			// A different config (different fingerprint) is unaffected.
			resp, raw = post(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":8}`, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy config after quarantine: status %d (%s)", resp.StatusCode, raw)
			}

			var stats Stats
			getJSON(t, ts.URL+"/v1/stats", &stats)
			if stats.Resilience.QuarantinedConfigs != 1 {
				t.Fatalf("quarantined_configs = %d, want 1", stats.Resilience.QuarantinedConfigs)
			}
			// Three injected panics, three 500s, then the 422 never ran.
			if stats.Resilience.PanicsRecovered != 3 {
				t.Fatalf("panics_recovered = %d, want 3", stats.Resilience.PanicsRecovered)
			}
		})
	}
}

// TestOversizedBodyRejected413: the MaxBytesReader limit turns a >1 MiB
// body into 413 on both POST endpoints.
func TestOversizedBodyRejected413(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"workload":"` + strings.Repeat("x", 1<<20+1024) + `"}`
	for _, ep := range []string{"/v1/run", "/v1/sweep"} {
		resp, _ := post(t, ts.URL+ep, huge, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", ep, resp.StatusCode)
		}
	}
}

// TestMetricsExposeResilience: the Prometheus endpoint renders the
// resilience counter families, the pool-outstanding gauge, and — with
// injection enabled — per-site firing counts.
func TestMetricsExposeResilience(t *testing.T) {
	withFaults(t, "jobs.admit=fail/every=2,runner.run=panic")
	_, ts := newTestServer(t)

	// Trip one injected panic in a merged forward (admitted: first hit of
	// jobs.admit) and the injected admission failure once (second hit), so
	// counters are nonzero.
	post(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)
	post(t, ts.URL+"/v1/run", `{"workload":"mmimdb"}`, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"mmbench_resilience_shed_expired_total",
		"mmbench_resilience_shed_overload_total",
		"mmbench_resilience_shed_shutdown_total",
		"mmbench_resilience_cancelled_total",
		"mmbench_resilience_panics_recovered_total",
		"mmbench_resilience_quarantined_configs_total",
		"mmbench_engine_pool_outstanding",
		`mmbench_faults_injected_total{site="jobs.admit"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, `mmbench_faults_injected_total{site="jobs.admit"} 1`) {
		t.Fatal("/metrics does not report the injected admission failure firing")
	}
	if !strings.Contains(text, "mmbench_resilience_panics_recovered_total 1\n") {
		t.Fatal("/metrics does not count the panic recovered from the merged forward")
	}
}

// TestDeadlineHeaderCappedByServerDefault: the client budget may lower
// the server default, never raise it — a huge X-Deadline-Ms under a
// tiny server default still sheds when the queue stalls past the
// server's cap.
func TestDeadlineHeaderCappedByServerDefault(t *testing.T) {
	withFaults(t, "jobs.dequeue=delay:60ms")
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, DefaultDeadline: 1e6}) // 1ms in ns
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})

	resp, body := post(t, ts.URL+"/v1/run", `{"workload":"mmimdb"}`,
		map[string]string{"X-Deadline-Ms": "3600000"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: server default must cap the client budget (%s)", resp.StatusCode, body)
	}
}
