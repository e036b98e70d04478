package serve

import (
	"bytes"
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
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 4, CacheBytes: 32 << 20})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	return s, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp
}

func postJSON(t *testing.T, url string, body string, v any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	return resp
}

func TestWorkloadsAndDevices(t *testing.T) {
	_, ts := newTestServer(t)

	var wl struct {
		Workloads []struct {
			Name     string   `json:"Name"`
			Variants []string `json:"Variants"`
		} `json:"workloads"`
	}
	if resp := getJSON(t, ts.URL+"/v1/workloads", &wl); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(wl.Workloads) != 9 {
		t.Fatalf("%d workloads, want 9", len(wl.Workloads))
	}

	var devs struct {
		Devices []string `json:"devices"`
		Fleet   struct {
			Devices []struct {
				Name     string  `json:"Name"`
				TDPWatts float64 `json:"TDPWatts"`
			} `json:"devices"`
			Links []struct {
				A   string  `json:"a"`
				B   string  `json:"b"`
				GBs float64 `json:"gbs"`
			} `json:"links"`
		} `json:"fleet"`
	}
	getJSON(t, ts.URL+"/v1/devices", &devs)
	if len(devs.Devices) != 4 {
		t.Fatalf("devices %v", devs.Devices)
	}
	if len(devs.Fleet.Devices) != 4 || len(devs.Fleet.Links) == 0 {
		t.Fatalf("fleet topology missing: %+v", devs.Fleet)
	}
	for _, l := range devs.Fleet.Links {
		if l.GBs <= 0 || l.A == "" || l.B == "" {
			t.Fatalf("bad link %+v", l)
		}
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var out struct {
		Report struct {
			Workload       string  `json:"Workload"`
			Variant        string  `json:"Variant"`
			Device         string  `json:"Device"`
			Batch          int     `json:"Batch"`
			LatencySeconds float64 `json:"LatencySeconds"`
			Kernels        int     `json:"Kernels"`
		} `json:"report"`
	}
	resp := postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","batch":16}`, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	r := out.Report
	if r.Workload != "avmnist" || r.Variant != "concat" || r.Device != "2080ti" || r.Batch != 16 {
		t.Fatalf("report identity %+v", r)
	}
	if r.LatencySeconds <= 0 || r.Kernels == 0 {
		t.Fatalf("empty report %+v", r)
	}
}

func TestRunEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"nope"}`},
		{"missing workload", `{}`},
		{"unknown device", `{"workload":"avmnist","device":"tpu"}`},
		{"malformed json", `{"workload":`},
		{"unknown field", `{"workload":"avmnist","botch":9}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			resp := postJSON(t, ts.URL+"/v1/run", tc.body, &e)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if e.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

// TestConcurrentIdenticalRunsExecuteOnce is the serving acceptance
// criterion: 64 concurrent POST /v1/run requests for the same config
// must cost exactly one underlying profile execution, verified through
// the /v1/stats cache counters.
func TestConcurrentIdenticalRunsExecuteOnce(t *testing.T) {
	_, ts := newTestServer(t)

	const clients = 64
	body := `{"workload":"mmimdb","batch":32}`
	var wg sync.WaitGroup
	reports := make([]string, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			reports[i] = string(raw)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("response %d differs from response 0", i)
		}
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Cache.Executions != 1 {
		t.Fatalf("%d executions for %d identical requests, want exactly 1 (cache %+v)",
			stats.Cache.Executions, clients, stats.Cache)
	}
	if got := stats.Cache.Hits + stats.Cache.Coalesced; got != clients-1 {
		t.Fatalf("hits %d + coalesced %d = %d, want %d",
			stats.Cache.Hits, stats.Cache.Coalesced, got, clients-1)
	}
	if stats.Latency.Samples != clients {
		t.Fatalf("latency samples %d, want %d", stats.Latency.Samples, clients)
	}
	if stats.Latency.P50 < 0 || stats.Latency.P99 < stats.Latency.P50 {
		t.Fatalf("latency percentiles out of order: %+v", stats.Latency)
	}
	if stats.Requests < clients+1 {
		t.Fatalf("requests %d", stats.Requests)
	}
	if stats.ThroughputRPS <= 0 {
		t.Fatalf("throughput %f", stats.ThroughputRPS)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	var accepted struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
		Href   string `json:"href"`
	}
	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"workload":"avmnist","devices":["2080ti","nano"],"batches":[8,16],"tasks":100}`, &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if accepted.JobID == "" || accepted.Href != "/v1/jobs/"+accepted.JobID {
		t.Fatalf("accepted body %+v", accepted)
	}

	var job JobResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+accepted.Href, &job)
		if job.Status == "done" || job.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatalf("job result is not a table: %s", raw)
	}
	if table.Title != "Sweep: avmnist/" {
		t.Fatalf("table title %q", table.Title)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(table.Rows))
	}
	if last := table.Columns[len(table.Columns)-1]; last != "Total for 100 tasks (s)" {
		t.Fatalf("tasks column missing: %v", table.Columns)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"workload":"avmnist","devices":[],"batches":[]}`, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	// Zero batches used to panic the handler via divide-by-zero.
	resp = postJSON(t, ts.URL+"/v1/sweep", `{"workload":"avmnist","devices":["2080ti"],"batches":[0],"tasks":100}`, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for zero batch", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "not positive") {
		t.Fatalf("error %q", e.Error)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", &e)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/workloads", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestStatsReportsEngine(t *testing.T) {
	_, ts := newTestServer(t)

	// An eager run drives real kernels through the compute engine; the
	// engine block must reflect that activity afterwards.
	resp := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"avmnist","batch":4,"paper_scale":false,"eager":true}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eager run status %d", resp.StatusCode)
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.Workers < 1 {
		t.Fatalf("engine workers %d", stats.Engine.Workers)
	}
	if stats.Engine.Tasks <= 0 || stats.Engine.Calls <= 0 {
		t.Fatalf("engine executed no tasks after an eager run: %+v", stats.Engine)
	}
	if stats.Engine.PoolHits+stats.Engine.PoolMisses <= 0 {
		t.Fatalf("buffer pool saw no traffic after an eager conv run: %+v", stats.Engine)
	}
	if hr := stats.Engine.PoolHitRate; hr < 0 || hr > 1 {
		t.Fatalf("pool hit rate %f out of range", hr)
	}

	// The JSON wire format must expose the documented field names.
	var raw map[string]any
	getJSON(t, ts.URL+"/v1/stats", &raw)
	eng, ok := raw["engine"].(map[string]any)
	if !ok {
		t.Fatalf("stats JSON missing engine block: %v", raw)
	}
	for _, field := range []string{"workers", "tasks_executed", "pool_hits", "bytes_reused", "pool_hit_rate"} {
		if _, ok := eng[field]; !ok {
			t.Fatalf("engine stats JSON missing %q: %v", field, eng)
		}
	}
}

// TestStatsReportsAttention drives an eager run through a workload with
// a transformer encoder (mosei's small flavour) and checks /v1/stats
// reports the fused kernel's call count and scratch-pool activity — and
// no "fused" constant, now that there is no other attention path.
func TestStatsReportsAttention(t *testing.T) {
	_, ts := newTestServer(t)

	var before Stats
	getJSON(t, ts.URL+"/v1/stats", &before)

	resp := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"mosei","batch":4,"paper_scale":false,"eager":true}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eager run status %d", resp.StatusCode)
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Attention.FusedCalls <= before.Attention.FusedCalls {
		t.Fatalf("fused attention calls did not advance: before %d after %d",
			before.Attention.FusedCalls, stats.Attention.FusedCalls)
	}
	if stats.Attention.ScratchCheckouts <= before.Attention.ScratchCheckouts ||
		stats.Attention.ScratchBytes <= before.Attention.ScratchBytes {
		t.Fatalf("attention scratch activity missing: %+v", stats.Attention)
	}

	// The JSON wire format must expose the documented field names.
	var raw map[string]any
	getJSON(t, ts.URL+"/v1/stats", &raw)
	attn, ok := raw["attention"].(map[string]any)
	if !ok {
		t.Fatalf("stats JSON missing attention block: %v", raw)
	}
	for _, field := range []string{"fused_calls", "scratch_checkouts", "scratch_bytes"} {
		if _, ok := attn[field]; !ok {
			t.Fatalf("attention stats JSON missing %q: %v", field, attn)
		}
	}
	if _, ok := attn["fused"]; ok {
		t.Fatalf("attention stats JSON still reports the removed toggle: %v", attn)
	}
}

// TestStatsReportsBranches drives an eager multi-modal run and checks
// /v1/stats counts which branch schedule the forward took — a fork only
// when the engine has a worker to spare — and that the top-level engine
// block counts the request's kernels: the branches block holds counters
// only, because branch kernels run on the run's own engine.
func TestStatsReportsBranches(t *testing.T) {
	_, ts := newTestServer(t)

	var before Stats
	getJSON(t, ts.URL+"/v1/stats", &before)

	resp := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"mosei","batch":4,"paper_scale":false,"eager":true,"seed":3}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eager run status %d", resp.StatusCode)
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	forked := stats.Branches.ParallelForwards - before.Branches.ParallelForwards
	launched := stats.Branches.BranchesLaunched - before.Branches.BranchesLaunched
	if stats.Engine.Workers > 1 {
		if forked < 1 || launched < 3 || stats.Branches.MaxBranches < 3 {
			t.Fatalf("%d workers: mosei's 3 branches should have forked: before %+v after %+v",
				stats.Engine.Workers, before.Branches, stats.Branches)
		}
	} else if forked != 0 || launched != 0 ||
		stats.Branches.SequentialForwards <= before.Branches.SequentialForwards {
		t.Fatalf("1 worker: the forward should have taken the sequential loop: before %+v after %+v",
			before.Branches, stats.Branches)
	}
	// Every kernel of the request, encoder branches included, ran on the
	// engine this block reports, and returned its scratch.
	if stats.Engine.Tasks <= before.Engine.Tasks || stats.Engine.Calls <= before.Engine.Calls {
		t.Fatalf("engine block did not count the eager run's kernels: before %+v after %+v",
			before.Engine.Stats, stats.Engine.Stats)
	}
	if stats.Engine.PoolOutstanding != 0 {
		t.Fatalf("engine pool_outstanding %d at rest", stats.Engine.PoolOutstanding)
	}

	// The JSON wire format must expose the documented field names.
	var raw map[string]any
	getJSON(t, ts.URL+"/v1/stats", &raw)
	if _, ok := raw["encode_errors"]; !ok {
		t.Fatalf("stats JSON missing encode_errors: %v", raw)
	}
	br, ok := raw["branches"].(map[string]any)
	if !ok {
		t.Fatalf("stats JSON missing branches block: %v", raw)
	}
	for _, field := range []string{"parallel_forwards", "sequential_forwards",
		"branches_launched", "max_branches", "parallel_backwards"} {
		if _, ok := br[field]; !ok {
			t.Fatalf("branch stats JSON missing %q: %v", field, br)
		}
	}
	for _, gone := range []string{"parallel", "engine"} {
		if _, ok := br[gone]; ok {
			t.Fatalf("branch stats JSON still reports the removed %q: %v", gone, br)
		}
	}
}

// TestWriteJSONCountsEncodeFailures pins the satellite fix: a response
// that cannot be encoded must be counted (and logged), not silently
// dropped.
func TestWriteJSONCountsEncodeFailures(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	s.writeJSON(rec, req, http.StatusOK, map[string]any{"bad": func() {}})
	if got := s.encodeErrors.Load(); got != 1 {
		t.Fatalf("encode errors %d, want 1", got)
	}
	var stats Stats
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.EncodeErrors != 1 {
		t.Fatalf("stats encode_errors %d, want 1", stats.EncodeErrors)
	}
}
