package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mmbench"
	"mmbench/internal/obs"
)

// burstRun posts n concurrent eager /v1/run requests with distinct
// seeds (same workload config otherwise) and returns each response's
// status and body. A start barrier makes the burst land together: the
// first to reach the batcher seals at once, and the rest queue behind
// its execution and merge on the re-seal.
func burstRun(t *testing.T, url string, n int, seedBase int64) ([]int, []string) {
	t.Helper()
	statuses := make([]int, n)
	bodies := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"workload":"avmnist","batch":2,"eager":true,"seed":%d}`, seedBase+int64(i))
			resp, raw := post(t, url+"/v1/run", body, nil)
			statuses[i], bodies[i] = resp.StatusCode, raw
		}(i)
	}
	close(start)
	wg.Wait()
	return statuses, bodies
}

// reportJSON extracts the "report" object from a /v1/run body and
// re-marshals it through mmbench.Report for byte comparison (Go's
// float64 JSON round-trip is exact, so equal bytes mean equal values).
func reportJSON(t *testing.T, body string) []byte {
	t.Helper()
	var resp struct {
		Report mmbench.Report `json:"report"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding run response %q: %v", body, err)
	}
	b, err := json.Marshal(resp.Report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBurstMergesWithIdenticalReports: a burst of distinct-seed eager
// requests merges into fewer forward executions (coalesce ratio > 1 in
// /v1/stats), every request succeeds, and each per-request report is
// byte-identical to the report the same config produces standalone —
// the transparency contract of continuous batching.
func TestBurstMergesWithIdenticalReports(t *testing.T) {
	// Hold every merged execution, so the burst reliably queues behind
	// the first one.
	withFaults(t, "batch.merge=delay:200ms")
	s := New(Options{Workers: 2, CacheBytes: 32 << 20})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	const n = 4
	statuses, bodies := burstRun(t, ts.URL, n, 1)
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, st, bodies[i])
		}
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if !stats.Batching.Enabled {
		t.Fatal("batching reported disabled on a default server")
	}
	if stats.Batching.MergedBatches == 0 {
		t.Fatalf("no merged executions after a %d-request burst: %+v", n, stats.Batching)
	}
	if stats.Batching.CoalesceRatio <= 1 {
		t.Fatalf("coalesce ratio %.2f, want > 1 (batch sizes %v)",
			stats.Batching.CoalesceRatio, stats.Batching.BatchSizes)
	}
	if stats.Batching.MergedRequests != n {
		t.Fatalf("merged_requests = %d, want %d", stats.Batching.MergedRequests, n)
	}

	// Bitwise identity: each batched report equals the standalone run.
	for i, body := range bodies {
		cfg := mmbench.RunConfig{
			Workload: "avmnist", BatchSize: 2, PaperScale: true,
			Eager: true, Seed: 1 + int64(i),
		}
		rep, err := mmbench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, body); string(got) != string(want) {
			t.Fatalf("request %d: batched report diverges from standalone\nbatched:    %s\nstandalone: %s", i, got, want)
		}
	}

	// The merged executions show up in /metrics too.
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
		"mmbench_batch_merged_total",
		"mmbench_batch_requests_total 4",
		"mmbench_batch_coalesce_ratio",
		"mmbench_batch_size_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestBatchingDisabled: -max-batch < 0 turns the batcher off; eager
// requests still work and the stats block says so.
func TestBatchingDisabled(t *testing.T) {
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, MaxBatch: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	resp, body := post(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":2,"eager":true,"seed":9}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Batching.Enabled {
		t.Fatal("batching reported enabled despite MaxBatch < 0")
	}
	if stats.Batching.MergedBatches != 0 {
		t.Fatalf("merged executions on a batching-disabled server: %+v", stats.Batching)
	}
}

// TestBatchMergePanicFailsWaitersOnce: with the batch.merge fault site
// panicking, every waiter of the merged execution fails with 500 (none
// hang), and the panic counts ONE quarantine strike per distinct member
// config — not one per waiter. With threshold 2, a 2-request merged
// panic must NOT quarantine the config; the next (solo) panic must.
func TestBatchMergePanicFailsWaitersOnce(t *testing.T) {
	// A stalled dequeue holds each execution long enough for the burst
	// to queue behind it.
	withFaults(t, "batch.merge=panic,jobs.dequeue=delay:200ms")
	s := New(Options{
		Workers: 2, CacheBytes: 32 << 20,
		QuarantineThreshold: 2,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	// A blocker of the same batch fingerprint but its own config (batch
	// 4): its panic strikes its own fingerprint, not the burst's.
	blocked := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"workload":"avmnist","batch":4,"eager":true,"seed":100}`))
		if err != nil {
			t.Error(err)
			blocked <- 0
			return
		}
		resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); s.batchingStats().MergedBatches == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocker never sealed")
		}
	}
	statuses, bodies := burstRun(t, ts.URL, 2, 1)
	if st := <-blocked; st != http.StatusInternalServerError {
		t.Fatalf("blocker: status %d, want 500 panic", st)
	}
	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	merged := stats.Batching.MaxMerged >= 2
	for i, st := range statuses {
		if st != http.StatusInternalServerError || !strings.Contains(bodies[i], "panicked") {
			t.Fatalf("request %d: status %d (%s), want 500 panic", i, st, bodies[i])
		}
	}
	if !merged {
		t.Skip("burst did not merge; cannot assert per-config strike dedup")
	}

	// One merged panic = one strike for the shared fingerprint, so the
	// config is NOT yet quarantined: the next request executes (and
	// panics again — strike two).
	resp, body := post(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":2,"eager":true,"seed":3}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("after one merged panic: status %d (%s), want 500 (one strike, threshold 2)", resp.StatusCode, body)
	}

	// Strike two crossed the threshold: now 422, immediately.
	resp, body = post(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":2,"eager":true,"seed":4}`, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body, "quarantined") {
		t.Fatalf("after two strikes: status %d (%s), want 422 quarantined", resp.StatusCode, body)
	}
}

// TestEagerRunNeverWaitsOnTheClock: the batcher holds no request for
// company, so a server whose clock never moves still answers an eager
// miss on an idle queue.
func TestEagerRunNeverWaitsOnTheClock(t *testing.T) {
	s := New(Options{Workers: 2, CacheBytes: 32 << 20, Clock: obs.NewFakeClock(time.Unix(0, 0))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"workload":"avmnist","batch":2,"eager":true,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("eager run on a stopped clock: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
