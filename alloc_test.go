package mmbench

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mmbench/internal/core"
	"mmbench/internal/device"
	"mmbench/internal/precision"
	"mmbench/internal/trace"
)

// TestEagerRunAllocations pins what a warm served eager request costs the
// heap: its answer, not its inputs or its forward. A run through a
// CachedRunner draws its generated inputs and its untaped intermediates
// from a run-scoped arena on the engine pool, reuses the modeled side
// its store network keeps and times its stages at the forward's
// boundaries. Each case's bound is its median TotalAlloc delta measured
// on amd64 plus headroom smaller than the case's float32 inputs, so
// inputs drawn on the heap fail it:
//
//	case                 median    bound    inputs  on the heap
//	mosei b2             0.078 MB  0.11 MB   47 KB  0.125 MB
//	avmnist concat b32   0.036 MB  0.07 MB  151 KB  0.200 MB
//	mosei b2+b2 merged   0.094 MB  0.13 MB  188 KB  0.282 MB
//
// The merged case is the batcher's path: two requests in one forward,
// whose members' inputs and the merged batch they are concatenated into
// all come from the arena. The race detector adds ≈ 0.015 MB. mosei b2
// was ≈ 13 MB when every intermediate was a fresh tensor and every
// request recompiled the plan, and ≈ 1.26 MB while every served run
// recorded one profiler span per kernel.
func TestEagerRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale eager runs")
	}
	mosei := RunConfig{Workload: "mosei", PaperScale: true, Eager: true, BatchSize: 2}
	avmnist := RunConfig{Workload: "avmnist", Variant: "concat", PaperScale: true, Eager: true, BatchSize: 32}
	for _, tc := range []struct {
		name  string
		cfgs  []RunConfig
		bound float64 // MB
	}{
		{"mosei b2", []RunConfig{mosei}, 0.11},
		{"avmnist concat b32", []RunConfig{avmnist}, 0.07},
		{"mosei b2+b2 merged", []RunConfig{mosei, mosei}, 0.13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr := NewCachedRunner(16 << 20)
			run := func(seed int64) {
				t.Helper()
				cfgs := slices.Clone(tc.cfgs)
				for i := range cfgs {
					cfgs[i].Seed = seed + int64(i)
				}
				var err error
				if len(cfgs) == 1 {
					_, err = cr.Run(cfgs[0])
				} else {
					_, _, err = cr.RunMergedProfiled(context.Background(), cfgs)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: the model build, its kept panels, the memoised
			// modeled side and the engine pool's free lists.
			for seed := int64(1); seed <= 3; seed++ {
				run(10 * seed)
			}
			const samples = 7
			deltas := make([]float64, samples)
			var m0, m1 runtime.MemStats
			for i := range deltas {
				runtime.ReadMemStats(&m0)
				run(int64(100 + 10*i))
				runtime.ReadMemStats(&m1)
				deltas[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			}
			slices.Sort(deltas)
			if med := deltas[samples/2]; med > tc.bound {
				t.Errorf("warm %s eager run allocates %.3f MB (median of %v), want ≤ %.2f MB", tc.name, med, deltas, tc.bound)
			} else {
				t.Logf("warm %s eager run: median %.3f MB of %v", tc.name, med, deltas)
			}
		})
	}
}

// footprint is what one eager request leaves a fresh store holding for
// the model: parameters, panels and one template.
func footprint(t *testing.T, cfg RunConfig) int64 {
	t.Helper()
	cr := NewCachedRunner(16 << 20)
	if _, err := cr.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return cr.ModelStats().Bytes
}

// TestModeledSideMemo pins the memo of a frozen network's modeled side:
// a repeated (batch size, device, policy) reuses the template — the same
// *trace.Trace, whichever fresh device.ByName pointer the request carries,
// and one template however many first requests race for it — while a
// different batch, device or policy compiles its own; the store charges
// each template once, and evicting the model drops its templates and
// their bytes. Reports stay those of a store-less Run throughout.
func TestModeledSideMemo(t *testing.T) {
	cr := NewCachedRunner(16 << 20)
	n, err := cr.models.Get("avmnist", "concat", true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dev string, prec string, batch int, seed int64) *trace.Trace {
		t.Helper()
		d, err := device.ByName(dev)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := precision.ParsePolicy(prec)
		if err != nil {
			t.Fatal(err)
		}
		results, err := core.RunMerged(n, core.RunOptions{Eager: true, Device: d, Precision: pol},
			[]core.MemberSpec{{BatchSize: batch, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Trace
	}
	wantMemo := func(step string, hits, misses uint64, templates ...*trace.Trace) {
		t.Helper()
		ms := cr.ModelStats()
		var bytes int64
		for _, tr := range templates {
			bytes += tr.Bytes()
		}
		if ms.MemoHits != hits || ms.MemoMisses != misses || ms.MemoBytes != bytes || ms.Bytes != n.ParamBytes()+ms.PackedBytes+bytes {
			t.Fatalf("%s: %+v, want %d hits, %d misses and %d template bytes charged", step, ms, hits, misses, bytes)
		}
	}

	base := run("2080ti", "", 2, 1)
	wantMemo("first request", 0, 1, base)
	if again := run("2080ti", "", 2, 2); again != base {
		t.Fatal("a repeated batch, device and policy compiled a second template")
	}
	wantMemo("repeat", 1, 1, base)
	nano := run("nano", "", 2, 3)
	f16 := run("2080ti", "f16", 2, 4)
	b3 := run("2080ti", "", 3, 5)
	for _, tr := range []*trace.Trace{nano, f16, b3} {
		if tr == base {
			t.Fatal("a different device, policy or batch size reused the template")
		}
	}
	wantMemo("three new keys", 1, 4, base, nano, f16, b3)

	// Racing first lookups of a new key: every racer reads the kept
	// template and it is charged once.
	const racers = 8
	traces := make([]*trace.Trace, racers)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := core.Run(n, core.RunOptions{BatchSize: 5})
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = r.Trace
		}(i)
	}
	wg.Wait()
	for _, tr := range traces {
		if tr != traces[0] {
			t.Fatal("racing first lookups returned different templates")
		}
	}
	if ms := cr.ModelStats(); ms.MemoHits+ms.MemoMisses != 5+racers || ms.MemoBytes != base.Bytes()+nano.Bytes()+f16.Bytes()+b3.Bytes()+traces[0].Bytes() {
		t.Fatalf("after %d racers: %+v", racers, ms)
	}
	for _, cfg := range []RunConfig{
		{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2, Seed: 9},
		{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2, Device: "nano", Precision: "f16", Seed: 9},
	} {
		rep, err := cr.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantStandalone(t, cfg, rep)
	}

	// Eviction: a budget that holds either model, not both.
	avmnist := RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2}
	mosei := RunConfig{Workload: "mosei", Variant: "transformer", Eager: true, BatchSize: 2}
	moseiBytes := footprint(t, mosei)
	small := runnerWithModelBudget(max(footprint(t, avmnist), moseiBytes) + 1)
	if _, err := small.Run(avmnist); err != nil {
		t.Fatal(err)
	}
	first, err := small.models.Get("avmnist", "concat", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Run(mosei); err != nil {
		t.Fatal(err)
	}
	ms := small.ModelStats()
	moseiNet, err := small.models.Get("mosei", "transformer", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, memo := moseiNet.KeptBytes(); ms.Evictions != 1 || ms.Entries != 1 || ms.Bytes != moseiBytes || ms.MemoBytes != memo || ms.MemoMisses != 2 {
		t.Fatalf("after mosei evicted avmnist: %+v, want only mosei's %d bytes, %d of them its template", ms, moseiBytes, memo)
	}
	if again, err := small.models.Get("avmnist", "concat", true); err != nil || again == first {
		t.Fatalf("avmnist was not evicted (err %v)", err)
	}
	avmnist.Seed = 7
	if _, err := small.Run(avmnist); err != nil {
		t.Fatal(err)
	}
	if ms := small.ModelStats(); ms.MemoMisses != 3 {
		t.Fatalf("the rebuilt avmnist reused an evicted template: %+v", ms)
	}
}
