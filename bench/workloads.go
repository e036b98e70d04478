package main

import (
	"math/rand"
	"time"

	"mmbench"
	"mmbench/internal/loadgen"
)

// The workload parameters below are part of the benchmark's definition:
// they are identical on both sides of any comparison and change only in
// a PR that redefines the baseline.
const (
	// openRate is serve_eager_open's arrival rate. The batcher runs the
	// batches of one fingerprint one after another, ≈17 req/s for this
	// request on the 2-core reference box, so this is just under half
	// load: queues form in bursts but never grow. Nearer saturation the
	// median latency moves three times as much as the machine's speed.
	openRate = 8.0
	// openScheduleSeed draws the arrival schedule. It is part of the
	// workload, not of the run: the tail latency of a few hundred Poisson
	// arrivals differs by tens of percent from one draw to the next, which
	// would bury any change in the system, so every run faces the same
	// bursts and -seed varies what the requests carry.
	openScheduleSeed = 1
	// cachedConfigs is serve_cached_closed's working set; it fits the
	// 64 MiB result cache hundreds of times over, so nothing is evicted.
	cachedConfigs = 64
	// closedClients is the client count of both closed loops.
	closedClients = 2
	zipfS         = 1.1
	// cachedListLen is the per-client request list of the cached loop.
	// Clients wrap around it: every request is a hit either way.
	cachedListLen = 1 << 16
	// mixedOpsPerSecond bounds the per-client list of the mixed loop, a
	// few times the rate its cheapest config could reach alone. Eager
	// lists never wrap, because a repeated seed would be a cache hit.
	mixedOpsPerSecond = 256
	// sweepsPerSecond bounds the offline sweep list the same way.
	sweepsPerSecond = 32
	// warmupPerConfig eager requests per distinct config (one analytic
	// request, which is the cache prefill) are sent during set-up.
	warmupPerConfig = 4
)

// op is one generated request.
type op struct {
	cfg mmbench.RunConfig
	// idx is the position of cfg's seedless form in workload.configs.
	idx int
	// due is the open-loop send time from the start of the window.
	due time.Duration
}

// workload is one traffic mix. Exactly one of requests and sweeps is
// set: serve workloads go through HTTP, the sweep calls the library.
type workload struct {
	name string
	why  string
	// limit is the latency an op must meet to count toward goodput.
	limit time.Duration
	open  bool
	// budget names the per-layer timings (all in ms) a request of this
	// workload crosses in series; their sum is set against lat_p50_ms.
	budget []string
	// configs lists the distinct seedless configs the workload draws from.
	configs []mmbench.RunConfig
	// requests builds one request list per client from the seed.
	requests func(w *workload, seed uint64, seconds int) [][]op
	// sweeps builds the offline sweep list from the seed.
	sweeps func(seed uint64, seconds int) []mmbench.SweepConfig
}

var workloadList = []*workload{
	{
		name: "serve_eager_open",
		why: "open-loop Poisson eager mosei requests with unique seeds: every request misses the cache, " +
			"so time is model build plus forward, and arrivals exercise the batch window and jobs queue",
		limit:    250 * time.Millisecond,
		open:     true,
		budget:   eagerBudget,
		configs:  []mmbench.RunConfig{eager("mosei", "", 2, "")},
		requests: openRequests,
	},
	{
		name: "serve_cached_closed",
		why: "closed-loop analytic requests drawn Zipf from 64 prefetched configs: all cache hits, " +
			"so only HTTP, fingerprint, cache lookup and JSON encode run; the no-change control for compute work",
		limit:    2 * time.Millisecond,
		budget:   []string{"serve.transport_ms", "serve.handler_hit_ms"},
		configs:  cachedConfigList(),
		requests: cachedRequests,
	},
	{
		name: "serve_mixed_closed",
		why: "closed-loop eager requests over six heterogeneous models (conv, attention, tensor fusion, one f16), " +
			"clients own disjoint configs so batching never merges: it pays the window and gains nothing",
		limit:  400 * time.Millisecond,
		budget: eagerBudget,
		configs: []mmbench.RunConfig{
			// Client 0 owns the first half, client 1 the second, so no two
			// in-flight requests ever share a batch fingerprint.
			eager("avmnist", "concat", 32, ""),
			eager("vnt", "transformer", 2, ""),
			eager("mosei", "tensor", 2, "f16"),
			eager("push", "transformer", 4, ""),
			eager("medseg", "transformer", 1, ""),
			eager("mustard", "concat", 2, ""),
		},
		requests: mixedRequests,
	},
	{
		name: "sweep_cold_offline",
		why: "library device x batch x precision sweeps over a jobs pool with a fresh cache each time: " +
			"the cache's write side plus plan compile and replay, and no kernel runs, so GEMM work predicts no change",
		limit:   500 * time.Millisecond,
		budget:  []string{"core.analytic_run_ms"},
		configs: sweepConfigList(),
		sweeps:  sweepList,
	},
}

// eagerBudget is the path of an eager /v1/run miss: over TCP, through
// the handler, behind the batcher's previous batch of the same
// fingerprint, held for the batch window, queued, then run.
var eagerBudget = []string{
	"serve.transport_ms", "serve.handler_hit_ms", "batch.serial_wait_p50_ms", "batch.lone_wait_ms",
	"jobs.queue_wait_p50_ms", "core.run_ms",
}

func workloadByName(name string) *workload {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

func eager(workload, variant string, batch int, prec string) mmbench.RunConfig {
	return mmbench.RunConfig{
		Workload: workload, Variant: variant, BatchSize: batch,
		PaperScale: true, Eager: true, Precision: prec,
	}
}

// requestSeed gives request i of a run its own eager data seed, so no
// two measured requests share a cache key; warm-up uses warmupSeed's
// disjoint range.
func requestSeed(seed uint64, i int) int64 { return int64(seed&0xffffffff)<<24 + int64(i) + 1 }

func warmupSeed(k int) int64 { return 1<<62 + int64(k) }

// openRequests draws the arrival schedule from loadgen.Schedule and
// rescales it so that exactly openRate×seconds arrivals fall inside the
// window (a Poisson process conditioned on its count); the seed gives
// every request its own data.
func openRequests(w *workload, seed uint64, seconds int) [][]op {
	n := int(openRate * float64(seconds))
	offs := loadgen.Schedule(loadgen.Config{
		QPS: openRate, Seed: openScheduleSeed, Duration: 4 * time.Duration(seconds) * time.Second,
	})
	for len(offs) <= n {
		// Only a schedule running at a quarter of its rate gets here.
		offs = append(offs, offs[len(offs)-1]+time.Second)
	}
	scale := float64(time.Duration(seconds)*time.Second) / float64(offs[n])
	list := make([]op, n)
	for i := range list {
		cfg := w.configs[0]
		cfg.Seed = requestSeed(seed, i)
		list[i] = op{cfg: cfg, due: time.Duration(float64(offs[i]) * scale)}
	}
	return [][]op{list}
}

var (
	allWorkloads = []string{"avmnist", "medseg", "medvqa", "mmimdb", "mosei", "mustard", "push", "transfuser", "vnt"}
	devices      = []string{"2080ti", "nano", "orin"}
)

// cachedConfigList spans all nine workloads × three devices, then walks
// batch sizes until it has cachedConfigs entries.
func cachedConfigList() []mmbench.RunConfig {
	batches := []int{32, 8, 2}
	out := make([]mmbench.RunConfig, cachedConfigs)
	for i := range out {
		out[i] = mmbench.RunConfig{
			Workload:   allWorkloads[i%len(allWorkloads)],
			Device:     devices[i/len(allWorkloads)%len(devices)],
			BatchSize:  batches[i/(len(allWorkloads)*len(devices))],
			PaperScale: true,
		}
	}
	return out
}

// cachedRequests draws each client's list Zipf-distributed over a
// seeded ranking of the configs, so the seed picks which configs are hot.
func cachedRequests(w *workload, seed uint64, _ int) [][]op {
	r := rand.New(rand.NewSource(int64(seed)))
	rank := r.Perm(len(w.configs))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(w.configs)-1))
	lists := make([][]op, closedClients)
	for c := range lists {
		lists[c] = make([]op, cachedListLen)
		for i := range lists[c] {
			idx := rank[zipf.Uint64()]
			lists[c][i] = op{cfg: w.configs[idx], idx: idx}
		}
	}
	return lists
}

// mixedRequests gives client c the c-th share of the configs and fills
// its list with seeded permutations of that share, so every seed sends
// the same mix in a different order.
func mixedRequests(w *workload, seed uint64, seconds int) [][]op {
	r := rand.New(rand.NewSource(int64(seed)))
	n := closedClients
	share := len(w.configs) / n
	lists := make([][]op, n)
	next := 0
	for c := range lists {
		for len(lists[c]) < mixedOpsPerSecond*seconds {
			for _, k := range r.Perm(share) {
				idx := c*share + k
				cfg := w.configs[idx]
				cfg.Seed = requestSeed(seed, next)
				next++
				lists[c] = append(lists[c], op{cfg: cfg, idx: idx})
			}
		}
	}
	return lists
}

var (
	sweepWorkloads  = []string{"avmnist", "mosei", "push", "transfuser"}
	sweepBatches    = [][]int{{1, 2, 4}, {2, 4, 8}, {4, 8, 16}}
	sweepPrecisions = []string{"f32", "f16"}
)

// sweepList rotates through the sweep workloads in seeded order, each
// sweep a 3 devices × 3 batches × 2 precisions grid with a seeded batch
// triple.
func sweepList(seed uint64, seconds int) []mmbench.SweepConfig {
	r := rand.New(rand.NewSource(int64(seed)))
	var out []mmbench.SweepConfig
	for len(out) < sweepsPerSecond*seconds {
		for _, k := range r.Perm(len(sweepWorkloads)) {
			out = append(out, mmbench.SweepConfig{
				Workload:   sweepWorkloads[k],
				Devices:    devices,
				Batches:    sweepBatches[r.Intn(len(sweepBatches))],
				Precisions: sweepPrecisions,
			})
		}
	}
	return out
}

// sweepConfigList enumerates every cell any sweep can contain.
func sweepConfigList() []mmbench.RunConfig {
	var out []mmbench.RunConfig
	for _, wl := range sweepWorkloads {
		for _, dev := range devices {
			for _, b := range []int{1, 2, 4, 8, 16} {
				for _, p := range sweepPrecisions {
					out = append(out, mmbench.RunConfig{
						Workload: wl, Device: dev, BatchSize: b, PaperScale: true, Precision: p,
					})
				}
			}
		}
	}
	return out
}
