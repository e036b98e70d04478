package mmbench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"mmbench/internal/core"
	"mmbench/internal/engine"
	"mmbench/internal/mmnet"
	"mmbench/internal/precision"
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

// eagerOutputs runs members as one core.RunMerged forward over n and
// returns each member's output elements and measured output error.
func eagerOutputs(t *testing.T, n *mmnet.Network, e *engine.Engine, pol precision.Policy, members []core.MemberSpec) (outs [][]float32, errMax []float64) {
	t.Helper()
	results, err := core.RunMerged(n, core.RunOptions{Eager: true, Engine: e, Precision: pol}, members)
	if err != nil {
		t.Fatalf("%s: %v", n.Name, err)
	}
	for _, r := range results {
		outs = append(outs, r.Output.Value.Data())
		errMax = append(errMax, r.OutputErrMax)
	}
	return outs, errMax
}

// packedBytes sums the GEMM panels a network's parameters keep — the
// holders' own count, independent of what a store was told.
func packedBytes(n *mmnet.Network) int64 {
	var total int64
	for _, p := range n.Params() {
		total += p.Frozen.Bytes()
	}
	return total
}

// uniformPolicy runs every stage at p.
func uniformPolicy(p precision.Type) precision.Policy {
	return precision.Policy{Encoder: p, Fusion: p, Head: p}
}

func wantSameBits(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for m := range want {
		if len(got[m]) != len(want[m]) {
			t.Fatalf("%s: member %d has %d outputs, want %d", what, m, len(got[m]), len(want[m]))
		}
		for i, v := range got[m] {
			if math.Float32bits(v) != math.Float32bits(want[m][i]) {
				t.Fatalf("%s: member %d output[%d] = %g, want %g (bitwise)", what, m, i, v, want[m][i])
			}
		}
	}
}

// f32Panels is the size of one set of f32 panels for a model: what a
// store holds after a single eager f32 request, with nothing racing.
func f32Panels(t *testing.T, workload, variant string, paper bool) int64 {
	t.Helper()
	st := workloads.NewStore(workloads.StoreBudget)
	n, err := st.Get(workload, variant, paper)
	if err != nil {
		t.Fatal(err)
	}
	eagerOutputs(t, n, nil, precision.Policy{}, []core.MemberSpec{{BatchSize: 1}})
	if got := st.Stats().PackedBytes; got == 0 || got != packedBytes(n) {
		t.Fatalf("%s: store counts %d packed bytes, the network holds %d", n.Name, got, packedBytes(n))
	}
	return packedBytes(n)
}

func TestModelStoreBehaviour(t *testing.T) {
	avmnist := paramBytes(t, "avmnist", "concat", true)
	avmnistPanels := f32Panels(t, "avmnist", "concat", true)
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
				if ms.Executions != 1 || ms.Entries != 1 || ms.Bytes != avmnist+avmnistPanels || ms.PackedBytes != avmnistPanels {
					t.Fatalf("model store after %d first requests: %+v, want one %d-byte build keeping one %d-byte set of panels", callers, ms, avmnist, avmnistPanels)
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
			// The first eager forwards of one store network race to pack
			// each weight: every racer's output has the bits a private
			// network gives, and exactly one set of panels is kept and
			// charged.
			name:   "racing first eager requests keep one set of panels",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				const callers = 32
				members := []core.MemberSpec{{BatchSize: 2, Seed: 3}}
				private, err := workloads.Build("avmnist", "concat", true, workloads.WeightSeed)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := eagerOutputs(t, private, nil, precision.Policy{}, members)
				n, err := cr.models.Get("avmnist", "concat", true)
				if err != nil {
					t.Fatal(err)
				}
				outs := make([][][]float32, callers)
				var wg sync.WaitGroup
				for i := range outs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results, err := core.RunMerged(n, core.RunOptions{Eager: true}, members)
						if err != nil {
							t.Error(err)
							return
						}
						outs[i] = [][]float32{results[0].Output.Value.Data()}
					}(i)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				for i, out := range outs {
					wantSameBits(t, "racer "+strconv.Itoa(i), out, want)
				}
				if ms := cr.ModelStats(); ms.PackedBytes != avmnistPanels || packedBytes(n) != avmnistPanels || ms.Bytes != avmnist+avmnistPanels {
					t.Fatalf("after %d racing first uses: store %+v, network holds %d; want one %d-byte set of panels", callers, ms, packedBytes(n), avmnistPanels)
				}
			},
		},
		{
			// Only a store freezes: a private network packs per call under
			// every precision and never acquires a holder, let alone panels.
			name:   "a Build network never keeps panels",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, _ *CachedRunner) {
				n, err := workloads.Build("mosei", "transformer", false, workloads.WeightSeed)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
					eagerOutputs(t, n, nil, uniformPolicy(p), []core.MemberSpec{{BatchSize: 2}})
				}
				for i, p := range n.Params() {
					if p.Frozen != nil {
						t.Fatalf("%s: parameter %d of a private network is frozen", n.Name, i)
					}
				}
				if packedBytes(n) != 0 {
					t.Fatalf("%s: a private network keeps %d bytes of panels", n.Name, packedBytes(n))
				}
			},
		},
		{
			// Analytic executions resolved through a store never
			// multiply: the store is charged parameters only, exactly as
			// before panels existed.
			name:   "analytic executions through a store build no panel",
			budget: workloads.StoreBudget,
			check: func(t *testing.T, cr *CachedRunner) {
				n, err := cr.models.Get("avmnist", "concat", true)
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range []precision.Policy{{}, uniformPolicy(precision.I8)} {
					if _, err := core.Run(n, core.RunOptions{BatchSize: 8, Precision: pol}); err != nil {
						t.Fatal(err)
					}
				}
				if ms := cr.ModelStats(); ms.PackedBytes != 0 || ms.Bytes != n.ParamBytes() || packedBytes(n) != 0 {
					t.Fatalf("after analytic runs: store %+v, network holds %d packed bytes; want %d parameter bytes only", ms, packedBytes(n), n.ParamBytes())
				}
			},
		},
		{
			// The budget holds either model fully packed, and both models'
			// parameters, but not both with their panels. mosei is served
			// first; avmnist's panels then grow its entry past the budget,
			// which evicts mosei — the least recently used OTHER model —
			// and the packed-bytes figure falls back to avmnist's alone.
			name:   "growing past the budget evicts the least recently used other model",
			budget: paramBytes(t, "mosei", "transformer", false) + f32Panels(t, "mosei", "transformer", false) + avmnist + avmnistPanels - 1,
			check: func(t *testing.T, cr *CachedRunner) {
				moseiPanels := f32Panels(t, "mosei", "transformer", false)
				first := RunConfig{Workload: "mosei", Variant: "transformer", Eager: true, BatchSize: 2}
				second := RunConfig{Workload: "avmnist", PaperScale: true, Eager: true, BatchSize: 2}
				rep, err := cr.Run(first)
				if err != nil {
					t.Fatal(err)
				}
				wantStandalone(t, first, rep)
				if ms := cr.ModelStats(); ms.Entries != 1 || ms.PackedBytes != moseiPanels {
					t.Fatalf("after mosei: %+v, want its %d packed bytes", ms, moseiPanels)
				}
				rep, err = cr.Run(second)
				if err != nil {
					t.Fatal(err)
				}
				wantStandalone(t, second, rep)
				ms := cr.ModelStats()
				if ms.Evictions != 1 || ms.Entries != 1 || ms.PackedBytes != avmnistPanels || ms.Bytes != avmnist+avmnistPanels {
					t.Fatalf("after avmnist grew past the budget: %+v, want mosei evicted and %d+%d bytes resident", ms, avmnist, avmnistPanels)
				}
				// mosei was evicted, not avmnist: asking for avmnist again is a hit.
				if _, err := cr.models.Get("avmnist", "concat", true); err != nil {
					t.Fatal(err)
				}
				if after := cr.ModelStats(); after.Hits != ms.Hits+1 || after.Executions != ms.Executions {
					t.Fatalf("avmnist was not the survivor: %+v → %+v", ms, after)
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

	// Reports carry no output at f32, so the bits are compared directly:
	// a store network — frozen, multiplying against the panels it keeps —
	// gives every member of a core.RunMerged forward the outputs (and the
	// measured output error) a private, per-call-packing network gives
	// it, on the forward that packs the panels and on the one that reuses
	// them, and packing writes no parameter.
	memberSets := [][]core.MemberSpec{
		{{BatchSize: 2, Seed: 7}},
		{{BatchSize: 1, Seed: 8}, {BatchSize: 3, Seed: 9}, {BatchSize: 2, Seed: 10}},
	}
	for i, m := range models {
		private, err := workloads.Build(m.workload, m.variant, m.paper, workloads.WeightSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
			for _, members := range memberSets {
				want, wantErr := eagerOutputs(t, private, nil, uniformPolicy(p), members)
				for _, workers := range []int{1, 4, 16} {
					e := engine.New(workers)
					n, err := workloads.NewStore(workloads.StoreBudget).Get(m.workload, m.variant, m.paper)
					if err != nil {
						t.Fatal(err)
					}
					for use := 1; use <= 2; use++ {
						what := fmt.Sprintf("%s %s members=%d workers=%d use %d", n.Name, p, len(members), workers, use)
						got, gotErr := eagerOutputs(t, n, e, uniformPolicy(p), members)
						wantSameBits(t, what, got, want)
						for k := range wantErr {
							if gotErr[k] != wantErr[k] {
								t.Errorf("%s: member %d OutputErrMax %g, want %g", what, k, gotErr[k], wantErr[k])
							}
						}
					}
					e.Close()
					if packedBytes(n) == 0 {
						t.Errorf("%s at %s: the store network kept no panels", n.Name, p)
					}
					if paramDigest(n) != before[i] {
						t.Errorf("%s at %s: packing changed the parameters", n.Name, p)
					}
				}
			}
		}
		if packedBytes(private) != 0 {
			t.Errorf("%s: the private network kept panels", private.Name)
		}
	}
}
