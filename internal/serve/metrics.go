package serve

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"

	"mmbench/internal/obs"
)

// Prometheus text exposition (format version 0.0.4), written by hand: the
// page is a rendering of the Stats snapshot /v1/stats serves — the same
// value, histograms included — so every series is a /v1/stats field, and
// a client library would add nothing.
//
// Metric families:
//
//	mmbench_requests_total, mmbench_encode_errors_total, mmbench_uptime_seconds
//	mmbench_cache_*            result-cache counters, residency and budget
//	mmbench_model_store_*      the runner's model-store counters, residency and budget
//	mmbench_batch_*            continuous cross-request batching counters
//	mmbench_jobs               scheduler job counts by state
//	mmbench_queue_depth        jobs waiting for a worker
//	mmbench_engine_*           compute-engine, buffer-pool, run-arena and pack-panel counters
//	mmbench_attention_*        fused-attention scratch-pool counters
//	mmbench_branches_*         branch-executor counters
//	mmbench_precision_*        low-precision kernel counters
//	mmbench_resilience_*       shed/cancel/panic/quarantine counters
//	mmbench_place_*            fleet-placement request and chosen-device counters
//	mmbench_faults_injected_total     fault-injection firings, {site}
//	mmbench_service_latency_seconds   /v1/run latency histogram
//	mmbench_queue_wait_seconds        scheduler queue-wait histogram
//	mmbench_stage_latency_seconds     per-stage eager wall time of the runner, {stage}
//
// A new metric is a Stats field plus one line below; the coverage test
// fails for a numeric /v1/stats field no series reports.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := writeMetrics(w, s.stats()); err != nil {
		s.encodeErrors.Add(1)
	}
}

// writeMetrics renders st as a /metrics page and returns the first write
// error.
func writeMetrics(w io.Writer, st Stats) error {
	m := &metricsWriter{w: w}
	m.counter("mmbench_requests_total", "HTTP requests served.", float64(st.Requests))
	m.counter("mmbench_encode_errors_total", "Response bodies that failed to encode.", float64(st.EncodeErrors))
	m.gauge("mmbench_uptime_seconds", "Seconds since server start.", st.UptimeSeconds)

	cs := st.Cache
	m.counter("mmbench_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
	m.counter("mmbench_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
	m.counter("mmbench_cache_executions_total", "Underlying executions the cache ran.", float64(cs.Executions))
	m.counter("mmbench_cache_coalesced_total", "Requests coalesced into an in-flight execution.", float64(cs.Coalesced))
	m.counter("mmbench_cache_evictions_total", "Cache entries evicted.", float64(cs.Evictions))
	m.gauge("mmbench_cache_resident_bytes", "Bytes of cached reports resident.", float64(cs.Bytes))
	m.gauge("mmbench_cache_entries", "Cached reports resident.", float64(cs.Entries))
	m.gauge("mmbench_cache_capacity_bytes", "Result-cache byte budget.", float64(cs.Capacity))

	ms := st.Models
	m.counter("mmbench_model_store_hits_total", "Eager executions served by an already-built network.", float64(ms.Hits))
	m.counter("mmbench_model_store_misses_total", "Eager executions that found no resident network (built or joined a build).", float64(ms.Misses))
	m.counter("mmbench_model_store_builds_total", "Network builds the model store ran (weights drawn; failed attempts for unknown variants included).", float64(ms.Executions))
	m.counter("mmbench_model_store_coalesced_total", "Lookups that joined an in-flight build of the same network.", float64(ms.Coalesced))
	m.counter("mmbench_model_store_evictions_total", "Networks evicted under the model-store budget.", float64(ms.Evictions))
	m.gauge("mmbench_model_store_resident_bytes", "Bytes of networks resident in the model store: parameters plus kept GEMM panels.", float64(ms.Bytes))
	m.gauge("mmbench_model_store_packed_bytes", "GEMM weight panels kept by resident networks, all precisions (part of resident bytes).", float64(ms.PackedBytes))
	m.counter("mmbench_model_store_memo_hits_total", "Eager and analytic runs that reused a network's memoised modeled side.", float64(ms.MemoHits))
	m.counter("mmbench_model_store_memo_misses_total", "Runs that compiled and replayed a network's plan for a new batch size, device and policy.", float64(ms.MemoMisses))
	m.gauge("mmbench_model_store_memo_bytes", "Modeled-side templates kept by resident networks (part of resident bytes).", float64(ms.MemoBytes))
	m.gauge("mmbench_model_store_entries", "Networks resident in the model store.", float64(ms.Entries))
	m.gauge("mmbench_model_store_capacity_bytes", "Model-store byte budget.", float64(ms.Capacity))

	if bst := st.Batching; bst.Enabled {
		m.counter("mmbench_batch_merged_total", "Merged cross-request forward executions.", float64(bst.MergedBatches))
		m.counter("mmbench_batch_requests_total", "Requests carried by merged executions.", float64(bst.MergedRequests))
		m.counter("mmbench_batch_samples_total", "Samples (summed member batch sizes) carried by merged executions.", float64(bst.MergedSamples))
		m.gauge("mmbench_batch_queue_depth", "Requests pending in the batcher's fingerprint queues.", float64(bst.QueueDepth))
		m.gauge("mmbench_batch_coalesce_ratio", "Requests per merged execution (1 = no cross-request sharing).", bst.CoalesceRatio)
		m.gauge("mmbench_batch_max_merged", "Largest request count a single execution carried.", float64(bst.MaxMerged))
		labeled(m, "mmbench_batch_size_total", "Merged executions by request count.", "counter", "requests", bst.BatchSizes)
	}

	labeled(m, "mmbench_jobs", "Scheduler jobs by state.", "gauge", "state", st.Jobs)
	m.gauge("mmbench_queue_depth", "Jobs waiting in the scheduler queue.", float64(st.Queue.Depth))

	es := st.Engine
	m.gauge("mmbench_engine_workers", "Compute-engine worker budget.", float64(es.Workers))
	m.counter("mmbench_engine_parallel_calls_total", "ParallelFor invocations.", float64(es.Calls))
	m.counter("mmbench_engine_tasks_total", "Engine chunks executed.", float64(es.Tasks))
	m.counter("mmbench_engine_pool_hits_total", "Buffer-pool hits.", float64(es.PoolHits))
	m.counter("mmbench_engine_pool_misses_total", "Buffer-pool misses.", float64(es.PoolMisses))
	m.counter("mmbench_engine_pool_reused_bytes_total", "Bytes served from the buffer pool.", float64(es.BytesReused))
	m.gauge("mmbench_engine_pool_outstanding", "Pooled buffers checked out and not yet returned (nonzero at rest is a leak).", float64(es.PoolOutstanding))
	m.counter("mmbench_engine_arena_runs_total", "Eager runs whose intermediates came from a run-scoped arena.", float64(es.Arena.Runs))
	m.counter("mmbench_engine_arena_bytes_total", "Intermediate tensor bytes served by run-scoped arenas.", float64(es.Arena.BytesServed))
	m.gauge("mmbench_engine_arena_high_water_bytes", "Most intermediate bytes one run's arena served (the measured intermediates).", float64(es.Arena.HighWaterBytes))
	m.counter("mmbench_engine_arena_oversize_total", "Arena tensors larger than a slab, given a pooled buffer of their own.", float64(es.Arena.Oversize))
	m.counter("mmbench_engine_arena_heap_fallbacks_total", "Arena tensors allocated from the heap (beyond the largest pool bucket or the arena's pool budget).", float64(es.Arena.HeapFallbacks))
	m.counter("mmbench_engine_pack_checkouts_total", "Packed-GEMM panel buffers drawn.", float64(es.Pack.PanelCheckouts))
	m.counter("mmbench_engine_pack_bytes_total", "Packed-GEMM panel scratch bytes drawn.", float64(es.Pack.PanelBytes))
	m.counter("mmbench_engine_pack_pool_hits_total", "Packed-GEMM panel checkouts served from the pool.", float64(es.Pack.PanelPoolHits))

	as := st.Attention
	m.counter("mmbench_attention_fused_calls_total", "Fused attention invocations.", float64(as.FusedCalls))
	m.counter("mmbench_attention_scratch_checkouts_total", "Fused-attention scratch-pool checkouts.", float64(as.ScratchCheckouts))
	m.counter("mmbench_attention_scratch_bytes_total", "Fused-attention pooled scratch bytes drawn.", float64(as.ScratchBytes))

	bs := st.Branches
	m.counter("mmbench_branches_parallel_forwards_total", "Forwards with concurrent encoder branches.", float64(bs.ParallelForwards))
	m.counter("mmbench_branches_sequential_forwards_total", "Forwards through the sequential branch loop.", float64(bs.SequentialForwards))
	m.counter("mmbench_branches_launched_total", "Branch goroutines started.", float64(bs.BranchesLaunched))
	m.gauge("mmbench_branches_max", "Widest branch join seen.", float64(bs.MaxBranches))
	m.counter("mmbench_branches_parallel_backwards_total", "Concurrent branch backward replays.", float64(bs.ParallelBackwards))

	ps := st.Precision
	m.counter("mmbench_precision_f16_kernels_total", "GEMM-family kernels run at f16 storage.", float64(ps.F16Kernels))
	m.counter("mmbench_precision_i8_kernels_total", "GEMM-family kernels run at int8 storage.", float64(ps.I8Kernels))

	rs := st.Resilience
	m.counter("mmbench_resilience_shed_expired_total", "Jobs shed because their deadline expired before start.", float64(rs.ShedExpired))
	m.counter("mmbench_resilience_shed_overload_total", "Jobs shed by admission control (full queue, or estimated cost past the deadline).", float64(rs.ShedOverload))
	m.counter("mmbench_resilience_shed_shutdown_total", "Queued jobs shed during shutdown drain.", float64(rs.ShedShutdown))
	m.counter("mmbench_resilience_cancelled_total", "Jobs cancelled by their context, before or during the run.", float64(rs.Cancelled))
	m.counter("mmbench_resilience_panics_recovered_total", "Job panics recovered into failures.", float64(rs.PanicsRecovered))
	m.counter("mmbench_resilience_quarantined_configs_total", "Workload configs quarantined after repeated panics.", float64(rs.QuarantinedConfigs))
	labeled(m, "mmbench_faults_injected_total", "Fault-injection rule firings by site.", "counter", "site", rs.FaultsInjected)

	m.counter("mmbench_place_requests_total", "Fleet-placement searches served via /v1/place.", float64(st.Fleet.PlaceRequests))
	labeled(m, "mmbench_place_chosen_device_total", "Stage nodes assigned per device across best placements.", "counter", "device", st.Fleet.ChosenDevices)

	m.head("mmbench_service_latency_seconds", "POST /v1/run service latency.", "histogram")
	m.histogramSeries("mmbench_service_latency_seconds", "", &st.latency)
	m.head("mmbench_queue_wait_seconds", "Scheduler queue wait, submission to worker pickup.", "histogram")
	m.histogramSeries("mmbench_queue_wait_seconds", "", &st.queueWait)
	if len(st.stages) > 0 {
		m.head("mmbench_stage_latency_seconds", "Measured per-stage wall time of eager runs.", "histogram")
	}
	for _, stage := range slices.Sorted(maps.Keys(st.stages)) {
		h := st.stages[stage]
		m.histogramSeries("mmbench_stage_latency_seconds", `stage="`+stage+`"`, &h)
	}
	return m.err
}

// metricsWriter renders Prometheus text format, remembering the first
// write error.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *metricsWriter) head(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) counter(name, help string, v float64) {
	m.head(name, help, "counter")
	m.printf("%s %s\n", name, fmtFloat(v))
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.head(name, help, "gauge")
	m.printf("%s %s\n", name, fmtFloat(v))
}

// labeled renders a family with one series per key of vals, labeled
// label=key in key order; an empty map renders nothing.
func labeled[K cmp.Ordered, V int | int64 | uint64](m *metricsWriter, name, help, typ, label string, vals map[K]V) {
	if len(vals) == 0 {
		return
	}
	m.head(name, help, typ)
	for _, k := range slices.Sorted(maps.Keys(vals)) {
		m.printf("%s{%s=%q} %s\n", name, label, fmt.Sprint(k), fmtFloat(float64(vals[k])))
	}
}

// histogramSeries renders one histogram's bucket/sum/count series with
// an optional shared label set (the caller emits the HELP/TYPE head).
func (m *metricsWriter) histogramSeries(name, labels string, h *obs.Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, b := range h.CumulativeBuckets() {
		m.printf("%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, fmtFloat(b.UpperBound), b.CumulativeCount)
	}
	m.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count())
	if labels == "" {
		m.printf("%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum()), name, h.Count())
	} else {
		m.printf("%s_sum{%s} %s\n%s_count{%s} %d\n",
			name, labels, fmtFloat(h.Sum()), name, labels, h.Count())
	}
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
