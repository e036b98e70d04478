package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mmbench"
	"mmbench/internal/gemm"
)

func TestRunResponseIncludesStageLatency(t *testing.T) {
	_, ts := newTestServer(t)
	var body struct {
		Report       map[string]any     `json:"report"`
		StageLatency map[string]float64 `json:"stage_latency_ms"`
	}
	resp := postJSON(t, ts.URL+"/v1/run",
		`{"workload":"avmnist","eager":true,"batch":2}`, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, stage := range []string{"encoder", "fusion", "head"} {
		if body.StageLatency[stage] <= 0 {
			t.Errorf("stage_latency_ms[%q] = %v, want > 0", stage, body.StageLatency[stage])
		}
	}

	// Analytic runs have no measured numerics: no stage_latency_ms key.
	var analytic map[string]any
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist"}`, &analytic)
	if _, ok := analytic["stage_latency_ms"]; ok {
		t.Error("analytic response has stage_latency_ms")
	}
}

func TestStatsStageLatencyAndQueue(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.StageLatency["encoder"].Samples == 0 {
		t.Errorf("stats stage_latency_ms missing encoder samples: %+v", st.StageLatency)
	}
	enc := st.StageLatency["encoder"]
	if enc.P50 > enc.P99 {
		t.Errorf("encoder p50 %v > p99 %v", enc.P50, enc.P99)
	}
	if st.Queue.Depth < 0 {
		t.Errorf("queue depth %d", st.Queue.Depth)
	}
	// The service latency block keeps its shape and stays ordered.
	if st.Latency.Samples < 1 || st.Latency.P50 > st.Latency.P99 {
		t.Errorf("latency block inconsistent: %+v", st.Latency)
	}
}

// Stage histograms belong to the server's runner: one eager request to
// server A is exactly one encoder sample there, and server B in the same
// process reports no stage latency on either surface.
func TestStageLatencyIsPerServer(t *testing.T) {
	_, a := newTestServer(t)
	_, b := newTestServer(t)
	postJSON(t, a.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)

	var sa Stats
	getJSON(t, a.URL+"/v1/stats", &sa)
	if n := sa.StageLatency["encoder"].Samples; n != 1 {
		t.Errorf("server A: %d encoder samples after one eager request, want 1", n)
	}
	var sb map[string]any
	getJSON(t, b.URL+"/v1/stats", &sb)
	if lat, ok := sb["stage_latency_ms"]; ok {
		t.Errorf("server B reports stage_latency_ms %v without running anything", lat)
	}
	for name := range metricValues(t, b.URL) {
		if strings.HasPrefix(name, "mmbench_stage_latency_seconds") {
			t.Errorf("server B exposes %s without running anything", name)
			break
		}
	}
}

// statsOnly lists the numeric /v1/stats leaves no /metrics series
// reports: the derived hit rates and throughput, the percentile summaries
// of histograms /metrics exports whole, and the batching config echo
// (batching.enabled, a bool, decides whether the batch families render).
// An entry ending in "." covers every leaf under it.
var statsOnly = []string{
	"throughput_rps", "cache.hit_rate", "engine.pool_hit_rate", "engine.pack.hit_rate",
	"service_latency_ms.", "stage_latency_ms.", "queue.wait_ms.",
	"batching.max_batch",
}

func isStatsOnly(path string) bool {
	for _, e := range statsOnly {
		if path == e || strings.HasSuffix(e, ".") && strings.HasPrefix(path, e) {
			return true
		}
	}
	return false
}

// jsonTree encodes v and decodes it back as a generic JSON tree.
func jsonTree(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// walkNumbers calls fn on every numeric leaf of a JSON tree with its
// dotted path, storing fn's result in the leaf's place.
func walkNumbers(path string, v any, fn func(path string, leaf float64) float64) any {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			x[k] = walkNumbers(p, c, fn)
		}
	case float64:
		return fn(path, x)
	}
	return v
}

// renderMetrics renders st through writeMetrics and parses its samples.
func renderMetrics(t *testing.T, st Stats) map[string]float64 {
	t.Helper()
	var buf strings.Builder
	if err := writeMetrics(&buf, st); err != nil {
		t.Fatal(err)
	}
	return parseSamples(buf.String())
}

// TestMetricsMatchStats: every numeric /v1/stats leaf outside statsOnly
// is a /metrics series with the same value, both surfaces rendered from
// one stats() snapshot. Which series reports which leaf is found, not
// listed: every leaf gets a distinct marker value, the marked snapshot is
// decoded back into a Stats and rendered, and the series carrying a
// leaf's marker is that leaf's series.
func TestMetricsMatchStats(t *testing.T) {
	// Injection on (a rule that never fires in this test) so the
	// faults_injected block exists.
	withFaults(t, "batch.merge=delay:1ms/every=1000")
	s, ts := newTestServer(t)
	// Traffic that fills every map-valued block: eager runs of one model
	// (batch sizes, a model-store build and hit), a placement (chosen
	// devices) and a sweep (jobs).
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2,"seed":1}`, nil)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2,"seed":2}`, nil)
	postJSON(t, ts.URL+"/v1/place", `{"workload":"avmnist"}`, nil)
	var sweep struct {
		JobID string `json:"job_id"`
	}
	postJSON(t, ts.URL+"/v1/sweep", `{"workload":"avmnist","devices":["2080ti"],"batches":[1,2]}`, &sweep)
	waitForJob(t, ts.URL, sweep.JobID)

	st := s.stats()
	if len(st.Batching.BatchSizes) == 0 || len(st.Resilience.FaultsInjected) == 0 || len(st.Fleet.ChosenDevices) == 0 {
		t.Fatalf("the test traffic left a map-valued block empty: %+v", st)
	}
	marks := map[string]float64{}
	marked := walkNumbers("", jsonTree(t, st), func(path string, leaf float64) float64 {
		if isStatsOnly(path) {
			return leaf
		}
		marks[path] = float64(1e6 + len(marks))
		return marks[path]
	})
	raw, err := json.Marshal(marked)
	if err != nil {
		t.Fatal(err)
	}
	var markedStats Stats
	if err := json.Unmarshal(raw, &markedStats); err != nil {
		t.Fatal(err)
	}
	seriesOf := map[float64]string{}
	for name, v := range renderMetrics(t, markedStats) {
		seriesOf[v] = name
	}
	got := renderMetrics(t, st)
	walkNumbers("", jsonTree(t, st), func(path string, want float64) float64 {
		if mark, ok := marks[path]; ok {
			if name, ok := seriesOf[mark]; !ok {
				t.Errorf("/v1/stats %s = %v has no /metrics series", path, want)
			} else if got[name] != want {
				t.Errorf("/metrics %s = %v, /v1/stats %s = %v", name, got[name], path, want)
			}
		}
		return want
	})
}

// Every GEMM of an eager run rides the packed micro-kernel, so the stats
// must report panel traffic and the selected kernel implementation.
func TestStatsReportsPackActivity(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Engine.Pack.Kernel == "" {
		t.Error("engine.pack.kernel is empty")
	}
	if st.Engine.Pack.PanelCheckouts <= 0 || st.Engine.Pack.PanelBytes <= 0 {
		t.Errorf("no pack-panel traffic after an eager run: %+v", st.Engine.Pack)
	}
	if hr := st.Engine.Pack.HitRate; hr < 0 || hr > 1 {
		t.Errorf("pack hit rate %v outside [0,1]", hr)
	}
}

// Two requests that miss the result cache (different seeds) but name the
// same model cost one build: the second resolves its network from the
// runner's model store.
func TestStatsReportsModelStore(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2,"seed":1}`, nil)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2,"seed":2}`, nil)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache.Executions != 2 {
		t.Fatalf("result cache ran %d executions, want 2 distinct misses", st.Cache.Executions)
	}
	if st.Models.Executions != 1 || st.Models.Hits != 1 {
		t.Errorf("model store builds=%d hits=%d, want 1 and 1", st.Models.Executions, st.Models.Hits)
	}
	if st.Models.Entries != 1 || st.Models.Bytes <= 0 || st.Models.Evictions != 0 {
		t.Errorf("model store residency: %+v", st.Models)
	}
}

// metricValues reads every sample of a /metrics page.
func metricValues(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseSamples(string(raw))
}

// parseSamples maps each sample of a /metrics page, labels included in
// the name, to its value.
func parseSamples(text string) map[string]float64 {
	vals := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	return vals
}

// A served model packs its Linear weights on the first eager request and
// never again: the second request (another seed, so a result-cache miss)
// adds nothing to the store's packed bytes, and the per-call panel
// traffic it draws — activations only — is under a tenth of what the
// same request re-packs on a private network. engine.pack counts pooled
// per-call panels only, so the kept panels show in the models block, not
// there. /v1/stats and /metrics report the same figures.
func TestStatsReportsKeptPanels(t *testing.T) {
	_, ts := newTestServer(t)
	snapshot := func() Stats {
		var st Stats
		getJSON(t, ts.URL+"/v1/stats", &st)
		metrics := metricValues(t, ts.URL)
		for name, want := range map[string]int64{
			"mmbench_model_store_packed_bytes":   st.Models.PackedBytes,
			"mmbench_model_store_resident_bytes": st.Models.Bytes,
			"mmbench_engine_pack_bytes_total":    st.Engine.Pack.PanelBytes,
		} {
			if got, ok := metrics[name]; !ok || got != float64(want) {
				t.Errorf("/metrics %s = %v (present %v), /v1/stats says %d", name, got, ok, want)
			}
		}
		return st
	}
	s0 := snapshot()
	postJSON(t, ts.URL+"/v1/run", `{"workload":"mosei","eager":true,"batch":2,"seed":1}`, nil)
	s1 := snapshot()
	postJSON(t, ts.URL+"/v1/run", `{"workload":"mosei","eager":true,"batch":2,"seed":2}`, nil)
	s2 := snapshot()

	if s0.Models.PackedBytes != 0 || s1.Models.PackedBytes <= 0 {
		t.Fatalf("packed_bytes %d before and %d after the first eager request, want 0 then > 0", s0.Models.PackedBytes, s1.Models.PackedBytes)
	}
	if s1.Models.Bytes <= s1.Models.PackedBytes {
		t.Errorf("resident bytes %d do not include parameters on top of %d packed bytes", s1.Models.Bytes, s1.Models.PackedBytes)
	}
	if s2.Models.PackedBytes != s1.Models.PackedBytes || s2.Models.Bytes != s1.Models.Bytes {
		t.Errorf("the second request changed the model footprint: %+v → %+v", s1.Models, s2.Models)
	}

	before := gemm.PackStats().PanelBytes
	if _, err := mmbench.Run(mmbench.RunConfig{Workload: "mosei", PaperScale: true, Eager: true, BatchSize: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	perCall := gemm.PackStats().PanelBytes - before
	second := s2.Engine.Pack.PanelBytes - s1.Engine.Pack.PanelBytes
	if second <= 0 || second*10 >= perCall {
		t.Errorf("second request drew %d panel bytes; a private network draws %d for the same request, want under a tenth", second, perCall)
	}
}

func TestQueueWaitAppearsAfterSweep(t *testing.T) {
	_, ts := newTestServer(t)
	var sweep struct {
		JobID string `json:"job_id"`
	}
	postJSON(t, ts.URL+"/v1/sweep",
		`{"workload":"avmnist","devices":["2080ti"],"batches":[1,2]}`, &sweep)
	waitForJob(t, ts.URL, sweep.JobID)

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Queue.WaitMs.Samples == 0 {
		t.Errorf("no queue-wait samples after a sweep: %+v", st.Queue)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate traffic first: two eager runs of one model (stage
	// histograms, a model-store build and a hit) and a sweep (jobs, queue
	// wait).
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2}`, nil)
	postJSON(t, ts.URL+"/v1/run", `{"workload":"avmnist","eager":true,"batch":2,"seed":2}`, nil)
	var sweep struct {
		JobID string `json:"job_id"`
	}
	postJSON(t, ts.URL+"/v1/sweep",
		`{"workload":"avmnist","devices":["2080ti"],"batches":[1]}`, &sweep)
	waitForJob(t, ts.URL, sweep.JobID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every counter family the service tracks must be exposed.
	families := []string{
		"mmbench_requests_total",
		"mmbench_encode_errors_total",
		"mmbench_cache_hits_total",
		"mmbench_cache_misses_total",
		"mmbench_jobs{state=\"done\"}",
		"mmbench_queue_depth",
		"mmbench_engine_tasks_total",
		"mmbench_engine_pool_hits_total",
		"mmbench_engine_pack_checkouts_total",
		"mmbench_engine_pack_bytes_total",
		"mmbench_engine_pack_pool_hits_total",
		"mmbench_attention_fused_calls_total",
		"mmbench_branches_parallel_forwards_total",
		"mmbench_precision_f16_kernels_total",
		"mmbench_service_latency_seconds_bucket",
		"mmbench_service_latency_seconds_count",
		"mmbench_queue_wait_seconds_bucket",
		"mmbench_stage_latency_seconds_bucket{stage=\"encoder\"",
		// The second eager run names the first one's model, so it is a
		// model-store hit, not a second build; the sweep's analytic cell
		// builds privately and touches neither counter.
		"mmbench_model_store_builds_total 1\n",
		"mmbench_model_store_hits_total 1\n",
		"mmbench_model_store_evictions_total 0\n",
		"mmbench_model_store_resident_bytes",
		"mmbench_model_store_packed_bytes",
	}
	for _, f := range families {
		if !strings.Contains(text, f) {
			t.Errorf("/metrics missing %s", f)
		}
	}

	// Structural validity: every sample line parses as name{labels} value,
	// and HELP/TYPE precede their family's samples.
	typed := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: sample %q not `name value`", ln+1, line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, line)
		}
	}

	// Histogram consistency: the service-latency +Inf bucket equals its
	// count series.
	var inf, count string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `mmbench_service_latency_seconds_bucket{le="+Inf"}`) {
			inf = strings.Fields(line)[1]
		}
		if strings.HasPrefix(line, "mmbench_service_latency_seconds_count") {
			count = strings.Fields(line)[1]
		}
	}
	if inf == "" || inf != count {
		t.Errorf("+Inf bucket %q != count %q", inf, count)
	}
}

func TestPprofGatedByOption(t *testing.T) {
	_, tsOff := newTestServer(t)
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without the option")
	}

	s := New(Options{Workers: 1, Pprof: true})
	tsOn := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		tsOn.Close()
		s.Close(context.Background())
	})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
