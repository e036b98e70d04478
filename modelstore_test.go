package mmbench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"mmbench/internal/mmnet"
	"mmbench/internal/resultcache"
	"mmbench/internal/workloads"
)

// runnerWithModelBudget is NewCachedRunner with the model store's fixed
// budget replaced, so tests can force evictions and oversized models.
func runnerWithModelBudget(budget int64) *CachedRunner {
	return &CachedRunner{cache: resultcache.New(16 << 20), models: workloads.NewStore(budget)}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantStandalone asserts rep is byte-identical to the store-less
// package-level Run of cfg (which builds a private network).
func wantStandalone(t *testing.T, cfg RunConfig, rep *Report) {
	t.Helper()
	want, err := Run(cfg)
	if err != nil {
		t.Errorf("standalone %+v: %v", cfg, err)
		return
	}
	if got, want := reportJSON(t, rep), reportJSON(t, want); !bytes.Equal(got, want) {
		t.Errorf("report for %+v differs from standalone Run:\n got %s\nwant %s", cfg, got, want)
	}
}

// paramDigest hashes every parameter tensor of a network, in Params
// order, bit for bit.
func paramDigest(n *mmnet.Network) [sha256.Size]byte {
	h := sha256.New()
	var buf [4]byte
	for _, p := range n.Params() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func paramBytes(t *testing.T, workload, variant string, paper bool) int64 {
	t.Helper()
	n, err := workloads.Build(workload, variant, paper, workloads.WeightSeed)
	if err != nil {
		t.Fatal(err)
	}
	return n.ParamBytes()
}

func TestModelStoreBehaviour(t *testing.T) {
	avmnist := paramBytes(t, "avmnist", "concat", true)
	cases := []struct {
		name   string
		budget int64
		check  func(t *testing.T, cr *CachedRunner)
	}{
		{
			// Distinct seeds miss the result cache 32 times; the model
			// they share is built once.
			name:   "concurrent first requests build once",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				const callers = 32
				reps := make([]*Report, callers)
				var wg sync.WaitGroup
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						rep, err := cr.Run(RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2, Seed: int64(i + 1)})
						if err != nil {
							t.Error(err)
						}
						reps[i] = rep
					}(i)
				}
				wg.Wait()
				if rs := cr.Stats(); rs.Executions != callers {
					t.Fatalf("result cache ran %d executions, want %d distinct misses", rs.Executions, callers)
				}
				ms := cr.ModelStats()
				if ms.Executions != 1 || ms.Entries != 1 || ms.Bytes != avmnist {
					t.Fatalf("model store after %d first requests: %+v, want one %d-byte build", callers, ms, avmnist)
				}
				if ms.Hits+ms.Coalesced != callers-1 {
					t.Errorf("hits %d + coalesced %d != %d", ms.Hits, ms.Coalesced, callers-1)
				}
				for _, i := range []int{0, callers - 1} {
					wantStandalone(t, RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2, Seed: int64(i + 1)}, reps[i])
				}
			},
		},
		{
			name:   "build error is returned, not cached, and poisons nothing",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				bad := RunConfig{Workload: "avmnist", Variant: "no-such-fusion", PaperScale: true, Eager: true}
				for i := 1; i <= 2; i++ {
					if _, err := cr.Run(bad); err == nil {
						t.Fatal("unknown variant accepted")
					}
					if ms := cr.ModelStats(); ms.Executions != uint64(i) || ms.Entries != 0 {
						t.Fatalf("after failure %d: %+v, want %d attempted builds and nothing resident", i, ms, i)
					}
				}
				good := RunConfig{Workload: "avmnist", PaperScale: true, Eager: true}
				rep, err := cr.Run(good)
				if err != nil {
					t.Fatal(err)
				}
				wantStandalone(t, good, rep)
			},
		},
		{
			// The budget holds avmnist but not avmnist plus anything else.
			// The long eager run resolves avmnist; once it is resident a
			// second model is requested, which evicts it under the first
			// run's feet. Whatever the interleaving, both reports must match
			// standalone runs and the next avmnist request rebuilds.
			name:   "model evicted under a running request",
			budget: avmnist + 1,
			check: func(t *testing.T, cr *CachedRunner) {
				long := RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 64, Seed: 3}
				other := RunConfig{Workload: "mosei", PaperScale: false, Eager: true, BatchSize: 4}
				resident := make(chan struct{})
				done := make(chan *Report, 1)
				go func() {
					// Resolve first so the test can observe residency, then run.
					if _, err := cr.models.Get("avmnist", "concat", true); err != nil {
						t.Error(err)
					}
					close(resident)
					rep, err := cr.Run(long)
					if err != nil {
						t.Error(err)
					}
					done <- rep
				}()
				<-resident
				rep, err := cr.Run(other)
				if err != nil {
					t.Fatal(err)
				}
				wantStandalone(t, other, rep)
				wantStandalone(t, long, <-done)
				if ms := cr.ModelStats(); ms.Evictions == 0 || ms.Entries != 1 {
					t.Fatalf("budget %d never evicted: %+v", avmnist+1, ms)
				}
			},
		},
		{
			name:   "model larger than the budget is served uncached",
			budget: avmnist - 1,
			check: func(t *testing.T, cr *CachedRunner) {
				for batch := 1; batch <= 2; batch++ {
					cfg := RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: batch}
					rep, err := cr.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantStandalone(t, cfg, rep)
				}
				if ms := cr.ModelStats(); ms.Executions != 2 || ms.Entries != 0 || ms.Bytes != 0 {
					t.Fatalf("oversized model: %+v, want 2 builds and nothing resident", ms)
				}
			},
		},
		{
			// Analytic executions read no weight: they build privately and
			// neither fill the store nor hit a model an eager run left.
			name:   "analytic executions bypass the store",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				cfgs := []RunConfig{
					{Workload: "avmnist", PaperScale: true, BatchSize: 8},
					{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2},
					{Workload: "avmnist", PaperScale: true, BatchSize: 16, Precision: "f16"},
				}
				for _, cfg := range cfgs {
					rep, err := cr.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantStandalone(t, cfg, rep)
				}
				if ms := cr.ModelStats(); ms.Executions != 1 || ms.Hits != 0 || ms.Entries != 1 {
					t.Fatalf("model store after one eager and two analytic runs: %+v, want one build, no hits", ms)
				}
			},
		},
		{
			// With one attention kernel and no process-wide toggles, a
			// report is a function of RunConfig alone (everything that
			// changes it is in canonicalFields): whichever entry point
			// produces an attention workload's report — cache miss, cache
			// hit, a single-member merged forward — it equals the
			// package-level Run's byte for byte.
			name:   "every entry point reports what Run reports",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				analytic := RunConfig{Workload: "mosei", PaperScale: true, BatchSize: 8}
				for _, pass := range []string{"miss", "hit"} {
					rep, err := cr.Run(analytic)
					if err != nil {
						t.Fatalf("%s: %v", pass, err)
					}
					wantStandalone(t, analytic, rep)
				}
				if rs := cr.Stats(); rs.Executions != 1 || rs.Hits != 1 {
					t.Fatalf("result cache after a miss and a hit: %+v", rs)
				}
				eager := RunConfig{Workload: "mosei", PaperScale: true, Eager: true, BatchSize: 2, Seed: 5}
				reps, _, err := cr.RunMergedProfiled(context.Background(), []RunConfig{eager})
				if err != nil {
					t.Fatalf("RunMergedProfiled: %v", err)
				}
				wantStandalone(t, eager, reps[0])

				// A report has no mode field and its modeled side is the
				// same Compile + Replay in both modes: an eager report IS
				// the analytic one, plus the measured output error under a
				// low-precision policy.
				for _, workload := range []string{"mosei", "avmnist"} {
					for _, prec := range []string{"", "i8"} {
						cfg := RunConfig{Workload: workload, PaperScale: true, BatchSize: 2, Precision: prec}
						want, err := cr.Run(cfg)
						if err != nil {
							t.Fatalf("analytic %+v: %v", cfg, err)
						}
						cfg.Eager = true
						rep, err := cr.Run(cfg)
						if err != nil {
							t.Fatalf("eager %+v: %v", cfg, err)
						}
						got := *rep
						if prec != "" {
							got.OutputErrMax, got.OutputErrMean = 0, 0
						}
						if got, want := reportJSON(t, &got), reportJSON(t, want); !bytes.Equal(got, want) {
							t.Errorf("eager report for %+v differs from the analytic one:\n got %s\nwant %s", cfg, got, want)
						}
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, runnerWithModelBudget(tc.budget)) })
	}
}

// TestSharedNetworksStayFrozen pins the rule the model store rests on:
// inference never writes to a network. One runner is driven from many
// goroutines over configs that share two models but differ in seed,
// batch, device and precision (f16 also runs the f32 reference forward;
// one goroutine runs a merged batch), next to analytic runs of the same
// models, which build privately. Run it under -race: a
// write to shared weights is a data race with every other reader. Every
// report must equal the store-less Run of the same config, and the
// models' parameters must hash the same before and after.
func TestSharedNetworksStayFrozen(t *testing.T) {
	cr := NewCachedRunner(16 << 20)
	type model struct {
		workload, variant string
		paper             bool
	}
	models := []model{
		{"avmnist", "concat", true},     // conv encoders at paper scale
		{"mosei", "transformer", false}, // sequence encoders, attention fusion
	}
	before := make([][sha256.Size]byte, len(models))
	for i, m := range models {
		n, err := cr.models.Get(m.workload, m.variant, m.paper)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = paramDigest(n)
		fresh, err := workloads.Build(m.workload, m.variant, m.paper, workloads.WeightSeed)
		if err != nil {
			t.Fatal(err)
		}
		if paramDigest(fresh) != before[i] {
			t.Fatalf("%s/%s: stored network differs from a fresh build", m.workload, m.variant)
		}
	}

	var cfgs []RunConfig
	for i, m := range models {
		base := RunConfig{Workload: m.workload, Variant: m.variant, PaperScale: m.paper}
		eager := func(batch int, seed int64, device, prec string) RunConfig {
			c := base
			c.Eager, c.BatchSize, c.Seed, c.Device, c.Precision = true, batch, seed, device, prec
			return c
		}
		analytic := func(batch int, device, prec string) RunConfig {
			c := base
			c.BatchSize, c.Device, c.Precision = batch, device, prec
			return c
		}
		s := int64(10 * (i + 1))
		cfgs = append(cfgs,
			eager(2, s+1, "2080ti", ""),
			eager(5, s+2, "nano", ""),
			eager(3, s+3, "orin", "f16"),
			eager(4, s+4, "2080ti", "head=i8,fusion=f16"),
			analytic(32, "nano", ""),
			analytic(7, "orin", "f16"),
		)
	}
	// One merged batch per model, members differing in batch and seed.
	merged := make([][]RunConfig, len(models))
	for i, m := range models {
		for k := 0; k < 3; k++ {
			merged[i] = append(merged[i], RunConfig{
				Workload: m.workload, Variant: m.variant, PaperScale: m.paper,
				Eager: true, BatchSize: k + 1, Seed: int64(100*i + k + 1),
			})
		}
	}
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		wg.Add(1)
		go func(cfg RunConfig) {
			defer wg.Done()
			rep, err := cr.Run(cfg)
			if err != nil {
				t.Errorf("%+v: %v", cfg, err)
				return
			}
			wantStandalone(t, cfg, rep)
		}(cfg)
	}
	for _, members := range merged {
		wg.Add(1)
		go func(members []RunConfig) {
			defer wg.Done()
			reps, _, err := cr.RunMergedProfiled(context.Background(), members)
			if err != nil {
				t.Errorf("merged %+v: %v", members[0], err)
				return
			}
			for k, rep := range reps {
				wantStandalone(t, members[k], rep)
			}
		}(members)
	}
	wg.Wait()

	if ms := cr.ModelStats(); ms.Executions != uint64(len(models)) {
		t.Errorf("model store built %d networks for %d models: %+v", ms.Executions, len(models), ms)
	}
	for i, m := range models {
		n, err := cr.models.Get(m.workload, m.variant, m.paper)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramDigest(n); got != before[i] {
			t.Errorf("%s: parameters changed under inference: %x → %x", n.Name, before[i][:6], got[:6])
		}
	}
}
