package mmbench

import (
	"context"
	"sync"
	"testing"
)

func TestCacheKeyCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		a, b RunConfig
		same bool
	}{
		{
			name: "defaults resolve to explicit values",
			a:    RunConfig{Workload: "avmnist"},
			b:    RunConfig{Workload: "avmnist", Variant: "concat", Device: "2080ti", BatchSize: 32},
			same: true,
		},
		{
			name: "seed ignored in analytic mode",
			a:    RunConfig{Workload: "avmnist", Seed: 7},
			b:    RunConfig{Workload: "avmnist", Seed: 99},
			same: true,
		},
		{
			name: "eager default seed equals explicit 1",
			a:    RunConfig{Workload: "avmnist", Eager: true},
			b:    RunConfig{Workload: "avmnist", Eager: true, Seed: 1},
			same: true,
		},
		{
			name: "eager seed matters",
			a:    RunConfig{Workload: "avmnist", Eager: true, Seed: 1},
			b:    RunConfig{Workload: "avmnist", Eager: true, Seed: 2},
			same: false,
		},
		{
			name: "batch matters",
			a:    RunConfig{Workload: "avmnist", BatchSize: 32},
			b:    RunConfig{Workload: "avmnist", BatchSize: 64},
			same: false,
		},
		{
			name: "device matters",
			a:    RunConfig{Workload: "avmnist", Device: "nano"},
			b:    RunConfig{Workload: "avmnist", Device: "orin"},
			same: false,
		},
		{
			name: "paper scale matters",
			a:    RunConfig{Workload: "avmnist", PaperScale: true},
			b:    RunConfig{Workload: "avmnist"},
			same: false,
		},
		{
			name: "variant matters",
			a:    RunConfig{Workload: "avmnist", Variant: "sum"},
			b:    RunConfig{Workload: "avmnist", Variant: "tensor"},
			same: false,
		},
		{
			name: "all-f32 precision spellings share the legacy key",
			a:    RunConfig{Workload: "avmnist"},
			b:    RunConfig{Workload: "avmnist", Precision: "head=f32,fusion=f32"},
			same: true,
		},
		{
			name: "explicit f32 equals empty precision",
			a:    RunConfig{Workload: "avmnist", Precision: "f32"},
			b:    RunConfig{Workload: "avmnist"},
			same: true,
		},
		{
			name: "precision matters",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8"},
			b:    RunConfig{Workload: "avmnist"},
			same: false,
		},
		{
			name: "equivalent policies canonicalize to one key",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8,fusion=f16"},
			b:    RunConfig{Workload: "avmnist", Precision: "fusion=f16, head=i8"},
			same: true,
		},
		{
			name: "different policies get different keys",
			a:    RunConfig{Workload: "avmnist", Precision: "head=i8"},
			b:    RunConfig{Workload: "avmnist", Precision: "head=f16"},
			same: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := tc.a.cacheKey(), tc.b.cacheKey()
			if (ka == kb) != tc.same {
				t.Fatalf("cacheKey(%+v) = %q vs cacheKey(%+v) = %q; want same=%v",
					tc.a, ka, tc.b, kb, tc.same)
			}
		})
	}
}

func TestCachedRunnerDedupes(t *testing.T) {
	cr := NewCachedRunner(16 << 20)
	cfg := RunConfig{Workload: "avmnist", PaperScale: true, BatchSize: 8}

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 32
	var wg sync.WaitGroup
	reports := make([]*Report, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix equivalent spellings of the same config.
			c := cfg
			if i%2 == 0 {
				c.Variant = "concat"
				c.Device = "2080ti"
			}
			rep, err := cr.Run(c)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()

	s := cr.Stats()
	if s.Executions != 1 {
		t.Fatalf("%d executions for %d equivalent requests, want 1 (stats %+v)", s.Executions, callers, s)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("caller %d got nil report", i)
		}
		if rep.LatencySeconds != want.LatencySeconds || rep.Kernels != want.Kernels {
			t.Fatalf("cached report diverges from direct Run: %+v vs %+v", rep, want)
		}
	}
}

func TestCachedRunnerErrorsPropagate(t *testing.T) {
	cr := NewCachedRunner(1 << 20)
	if _, err := cr.Run(RunConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	s := cr.Stats()
	if s.Entries != 0 {
		t.Fatalf("error cached: %+v", s)
	}
}

// The runner's stage histograms count executions, not requests: a merged
// forward of two members is one sample, a standalone eager miss one more,
// a cache hit or an analytic execution none. A snapshot is a copy that
// later executions do not move.
func TestCachedRunnerStageLatencies(t *testing.T) {
	cr := NewCachedRunner(16 << 20)
	encoder := func() uint64 {
		h := cr.StageLatencies()["encoder"]
		return h.Count()
	}
	eager := RunConfig{Workload: "avmnist", Eager: true, BatchSize: 2, Seed: 1}
	other := eager
	other.Seed = 2
	if _, _, err := cr.RunMergedProfiled(context.Background(), []RunConfig{eager, other}); err != nil {
		t.Fatal(err)
	}
	if n := encoder(); n != 1 {
		t.Fatalf("%d encoder samples after one merged forward of two members, want 1", n)
	}
	snap := cr.StageLatencies()
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, err := cr.Run(eager); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cr.Run(RunConfig{Workload: "avmnist", BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	if n := encoder(); n != 2 {
		t.Fatalf("%d encoder samples, want 2: the eager miss adds one, its hit and the analytic run none", n)
	}
	if h := snap["encoder"]; h.Count() != 1 {
		t.Fatalf("an earlier snapshot moved to %d samples: it aliases the runner", h.Count())
	}
}
