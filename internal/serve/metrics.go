package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mmbench/internal/engine"
	"mmbench/internal/faultinject"
	"mmbench/internal/gemm"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
)

// Prometheus text exposition (format version 0.0.4), written by hand —
// the counters already exist as process-wide atomics and the histograms
// are obs.Histogram, so the exporter is a read-only rendering pass with
// no client library needed.
//
// Metric families:
//
//	mmbench_requests_total, mmbench_encode_errors_total
//	mmbench_cache_*            result-cache counters
//	mmbench_model_store_*      the runner's model-store counters
//	mmbench_batch_*            continuous cross-request batching counters
//	mmbench_jobs               scheduler job counts by state
//	mmbench_queue_depth        jobs waiting for a worker
//	mmbench_engine_*           compute-engine and buffer-pool counters
//	mmbench_attention_*        fused-attention scratch-pool counters
//	mmbench_branches_*         branch-executor counters
//	mmbench_precision_*        low-precision kernel counters
//	mmbench_resilience_*       shed/cancel/panic/quarantine counters
//	mmbench_place_*            fleet-placement request and chosen-device counters
//	mmbench_faults_injected_total     fault-injection firings, {site}
//	mmbench_service_latency_seconds   /v1/run latency histogram
//	mmbench_queue_wait_seconds        scheduler queue-wait histogram
//	mmbench_stage_latency_seconds     per-stage eager wall time of the runner, {stage}
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.countRequest()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	m := newMetricsWriter(w)

	s.mu.Lock()
	requests := s.requests
	s.mu.Unlock()
	m.counter("mmbench_requests_total", "HTTP requests served.", float64(requests))
	m.counter("mmbench_encode_errors_total", "Response bodies that failed to encode.", float64(s.encodeErrors.Load()))
	m.gauge("mmbench_uptime_seconds", "Seconds since server start.", time.Since(s.start).Seconds())

	cs := s.runner.Stats()
	m.counter("mmbench_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
	m.counter("mmbench_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
	m.counter("mmbench_cache_executions_total", "Underlying executions the cache ran.", float64(cs.Executions))
	m.counter("mmbench_cache_coalesced_total", "Requests coalesced into an in-flight execution.", float64(cs.Coalesced))
	m.counter("mmbench_cache_evictions_total", "Cache entries evicted.", float64(cs.Evictions))
	m.gauge("mmbench_cache_resident_bytes", "Bytes of cached reports resident.", float64(cs.Bytes))

	ms := s.runner.ModelStats()
	m.counter("mmbench_model_store_hits_total", "Eager executions served by an already-built network.", float64(ms.Hits))
	m.counter("mmbench_model_store_builds_total", "Network builds the model store ran (weights drawn; failed attempts for unknown variants included).", float64(ms.Executions))
	m.counter("mmbench_model_store_evictions_total", "Networks evicted under the model-store budget.", float64(ms.Evictions))
	m.gauge("mmbench_model_store_resident_bytes", "Bytes of networks resident in the model store: parameters plus kept GEMM panels.", float64(ms.Bytes))
	m.gauge("mmbench_model_store_packed_bytes", "GEMM weight panels kept by resident networks, all precisions (part of resident bytes).", float64(ms.PackedBytes))

	if s.batcher != nil {
		bst := s.batcher.Stats()
		m.counter("mmbench_batch_merged_total", "Merged cross-request forward executions.", float64(bst.MergedBatches))
		m.counter("mmbench_batch_requests_total", "Requests carried by merged executions.", float64(bst.MergedRequests))
		m.counter("mmbench_batch_samples_total", "Samples (summed member batch sizes) carried by merged executions.", float64(bst.MergedSamples))
		m.gauge("mmbench_batch_queue_depth", "Requests pending in the batcher's fingerprint queues.", float64(bst.QueueDepth))
		m.gauge("mmbench_batch_coalesce_ratio", "Requests per merged execution (1 = no cross-request sharing).", bst.CoalesceRatio)
		m.gauge("mmbench_batch_max_merged", "Largest request count a single execution carried.", float64(bst.MaxMerged))
		if len(bst.BatchSizes) > 0 {
			sizes := make([]int, 0, len(bst.BatchSizes))
			for n := range bst.BatchSizes {
				sizes = append(sizes, n)
			}
			sort.Ints(sizes)
			m.head("mmbench_batch_size_total", "Merged executions by request count.", "counter")
			for _, n := range sizes {
				m.labeled("mmbench_batch_size_total",
					fmt.Sprintf("requests=%q", strconv.Itoa(n)), float64(bst.BatchSizes[n]))
			}
		}
	}

	counts := s.pool.Counts()
	m.head("mmbench_jobs", "Scheduler jobs by state.", "gauge")
	m.labeled("mmbench_jobs", `state="queued"`, float64(counts.Queued))
	m.labeled("mmbench_jobs", `state="running"`, float64(counts.Running))
	m.labeled("mmbench_jobs", `state="done"`, float64(counts.Done))
	m.labeled("mmbench_jobs", `state="failed"`, float64(counts.Failed))
	m.labeled("mmbench_jobs", `state="shed"`, float64(counts.Shed))
	m.gauge("mmbench_queue_depth", "Jobs waiting in the scheduler queue.", float64(s.pool.QueueDepth()))

	es := engine.TotalStats()
	m.gauge("mmbench_engine_workers", "Compute-engine worker budget.", float64(es.Workers))
	m.counter("mmbench_engine_parallel_calls_total", "ParallelFor invocations.", float64(es.Calls))
	m.counter("mmbench_engine_tasks_total", "Engine chunks executed.", float64(es.Tasks))
	m.counter("mmbench_engine_pool_hits_total", "Buffer-pool hits.", float64(es.PoolHits))
	m.counter("mmbench_engine_pool_misses_total", "Buffer-pool misses.", float64(es.PoolMisses))
	m.counter("mmbench_engine_pool_reused_bytes_total", "Bytes served from the buffer pool.", float64(es.BytesReused))
	m.gauge("mmbench_engine_pool_outstanding", "Pooled buffers checked out and not yet returned (nonzero at rest is a leak).", float64(es.PoolOutstanding))

	gs := gemm.PackStats()
	m.counter("mmbench_engine_pack_checkouts_total", "Packed-GEMM panel buffers drawn.", float64(gs.PanelCheckouts))
	m.counter("mmbench_engine_pack_bytes_total", "Packed-GEMM panel scratch bytes drawn.", float64(gs.PanelBytes))
	m.counter("mmbench_engine_pack_pool_hits_total", "Packed-GEMM panel checkouts served from the pool.", float64(gs.PanelPoolHits))

	as := ops.AttentionStats()
	m.counter("mmbench_attention_fused_calls_total", "Fused attention invocations.", float64(as.FusedCalls))
	m.counter("mmbench_attention_scratch_checkouts_total", "Fused-attention scratch-pool checkouts.", float64(as.ScratchCheckouts))
	m.counter("mmbench_attention_scratch_bytes_total", "Fused-attention pooled scratch bytes drawn.", float64(as.ScratchBytes))

	bs := mmnet.BranchStats()
	m.counter("mmbench_branches_parallel_forwards_total", "Forwards with concurrent encoder branches.", float64(bs.ParallelForwards))
	m.counter("mmbench_branches_sequential_forwards_total", "Forwards through the sequential branch loop.", float64(bs.SequentialForwards))
	m.counter("mmbench_branches_launched_total", "Branch goroutines started.", float64(bs.BranchesLaunched))
	m.gauge("mmbench_branches_max", "Widest branch join seen.", float64(bs.MaxBranches))
	m.counter("mmbench_branches_parallel_backwards_total", "Concurrent branch backward replays.", float64(bs.ParallelBackwards))

	ps := ops.PrecisionStats()
	m.counter("mmbench_precision_f16_kernels_total", "GEMM-family kernels run at emulated f16 storage.", float64(ps.F16Kernels))
	m.counter("mmbench_precision_i8_kernels_total", "GEMM-family kernels run at emulated int8 storage.", float64(ps.I8Kernels))
	m.counter("mmbench_precision_quant_scratch_bytes_total", "Pooled scratch bytes drawn for quantized operand copies.", float64(ps.QuantScratchBytes))

	rs := s.pool.Resilience()
	m.counter("mmbench_resilience_shed_expired_total", "Jobs shed because their deadline expired before start.", float64(rs.ShedExpired))
	m.counter("mmbench_resilience_shed_overload_total", "Jobs shed by admission control (full queue, or estimated cost past the deadline).", float64(rs.ShedOverload))
	m.counter("mmbench_resilience_shed_shutdown_total", "Queued jobs shed during shutdown drain.", float64(rs.ShedShutdown))
	m.counter("mmbench_resilience_cancelled_total", "Jobs cancelled by their context, before or during the run.", float64(rs.Cancelled))
	m.counter("mmbench_resilience_panics_recovered_total", "Job panics recovered into failures.", float64(rs.PanicsRecovered))
	m.counter("mmbench_resilience_quarantined_configs_total", "Workload configs quarantined after repeated panics.", float64(s.quar.count()))
	if faultinject.Enabled() {
		m.head("mmbench_faults_injected_total", "Fault-injection rule firings by site.", "counter")
		for _, site := range faultinject.Sites() {
			m.labeled("mmbench_faults_injected_total",
				fmt.Sprintf("site=%q", string(site)), float64(faultinject.Fired(site)))
		}
	}

	fl := s.fleetStats()
	m.counter("mmbench_place_requests_total", "Fleet-placement searches served via /v1/place.", float64(fl.PlaceRequests))
	if len(fl.ChosenDevices) > 0 {
		devs := make([]string, 0, len(fl.ChosenDevices))
		for d := range fl.ChosenDevices {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		m.head("mmbench_place_chosen_device_total", "Stage nodes assigned per device across best placements.", "counter")
		for _, d := range devs {
			m.labeled("mmbench_place_chosen_device_total", `device="`+d+`"`, float64(fl.ChosenDevices[d]))
		}
	}

	m.histogram("mmbench_service_latency_seconds", "POST /v1/run service latency.", "", s.serviceLatency())
	m.histogram("mmbench_queue_wait_seconds", "Scheduler queue wait, submission to worker pickup.", "", s.pool.QueueWait())

	stages := s.runner.StageLatencies()
	names := make([]string, 0, len(stages))
	for stage := range stages {
		names = append(names, stage)
	}
	sort.Strings(names)
	if len(names) > 0 {
		m.head("mmbench_stage_latency_seconds", "Measured per-stage wall time of profiled eager runs.", "histogram")
	}
	for _, stage := range names {
		h := stages[stage]
		m.histogramSeries("mmbench_stage_latency_seconds", `stage="`+stage+`"`, &h)
	}

	if m.err != nil {
		s.encodeErrors.Add(1)
	}
}

// metricsWriter renders Prometheus text format, remembering the first
// write error so the handler reports it once.
type metricsWriter struct {
	w   http.ResponseWriter
	err error
}

func newMetricsWriter(w http.ResponseWriter) *metricsWriter {
	return &metricsWriter{w: w}
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

func (m *metricsWriter) labeled(name, labels string, v float64) {
	m.printf("%s{%s} %s\n", name, labels, fmtFloat(v))
}

func (m *metricsWriter) histogram(name, help, labels string, h obs.Histogram) {
	m.head(name, help, "histogram")
	m.histogramSeries(name, labels, &h)
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
