package mmbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"mmbench/internal/data"
	"mmbench/internal/precision"
	"mmbench/internal/resultcache"
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

// A report with no JSON encoding (NaN is not a JSON number) is an
// execution error: it is returned, nothing is cached, and the next
// identical call executes again.
func TestCachedRunnerUnencodableReportNotCached(t *testing.T) {
	cr := NewCachedRunner(1 << 20)
	cfg := RunConfig{Workload: "avmnist"}
	execs := 0
	nan := func(context.Context, RunConfig) (*Report, map[string]float64, error) {
		execs++
		return &Report{Workload: "avmnist", CPUShare: math.NaN()}, nil, nil
	}
	for i := 1; i <= 2; i++ {
		_, _, err := cr.RunProfiledCtxThrough(context.Background(), cfg, nan)
		if !errors.Is(err, ErrUnencodable) {
			t.Fatalf("call %d: err %v, want ErrUnencodable", i, err)
		}
		if execs != i {
			t.Fatalf("call %d: %d executions, want %d", i, execs, i)
		}
		if s := cr.Stats(); s.Entries != 0 || s.Bytes != 0 {
			t.Fatalf("call %d: unencodable report cached: %+v", i, s)
		}
	}
}

// Keyed derives, in one pass, exactly the key and fingerprint strings
// the one-string methods return — and those are the strings every
// existing cache entry and quarantine record was keyed by.
func TestKeyedMatchesKeyAndFingerprint(t *testing.T) {
	for _, tc := range []struct {
		cfg     RunConfig
		key, fp string
	}{
		{RunConfig{Workload: "avmnist"},
			"batch=32;device=2080ti;eager=false;paper=false;seed=0;variant=concat;workload=avmnist",
			"batch=32;device=2080ti;eager=false;paper=false;variant=concat;workload=avmnist"},
		{RunConfig{Workload: "mosei", Eager: true, BatchSize: 2, Seed: 9, Precision: "fusion=f16, head=i8"},
			`batch=2;device=2080ti;eager=true;paper=false;precision=fusion\=f16,head\=i8;seed=9;variant=concat;workload=mosei`,
			`batch=2;device=2080ti;eager=true;paper=false;precision=fusion\=f16,head\=i8;variant=concat;workload=mosei`},
		{RunConfig{Workload: "nope", Precision: "bogus"},
			"batch=32;device=2080ti;eager=false;paper=false;precision=invalid:bogus;seed=0;variant=;workload=nope",
			"batch=32;device=2080ti;eager=false;paper=false;precision=invalid:bogus;variant=;workload=nope"},
		{RunConfig{Workload: `a=b;c\d`, Variant: `v;`, Device: `=d\`, Precision: `x=;\`, Eager: true, Seed: -3, BatchSize: 1000},
			`batch=1000;device=\=d\\;eager=true;paper=false;precision=invalid:x\=\;\\;seed=-3;variant=v\;;workload=a\=b\;c\\d`,
			`batch=1000;device=\=d\\;eager=true;paper=false;precision=invalid:x\=\;\\;variant=v\;;workload=a\=b\;c\\d`},
	} {
		kc := tc.cfg.Keyed()
		if kc.key != tc.key || tc.cfg.cacheKey() != tc.key {
			t.Errorf("%+v: Keyed key %q, cacheKey %q, want %q", tc.cfg, kc.key, tc.cfg.cacheKey(), tc.key)
		}
		if kc.Fingerprint() != tc.fp || tc.cfg.Fingerprint() != tc.fp {
			t.Errorf("%+v: Keyed fingerprint %q, Fingerprint %q, want %q",
				tc.cfg, kc.Fingerprint(), tc.cfg.Fingerprint(), tc.fp)
		}
	}
}

// canonicalMap is the fields resultcache.Key canonicalises a config
// from: the key's (with seed) and, less seed, the fingerprint's.
func canonicalMap(cfg RunConfig) map[string]string {
	norm := cfg.withDefaults()
	if !norm.Eager {
		norm.Seed = 0
	} else if norm.Seed == 0 {
		norm.Seed = data.DefaultSeed
	}
	m := map[string]string{
		"workload": norm.Workload,
		"variant":  norm.Variant,
		"device":   norm.Device,
		"batch":    strconv.Itoa(norm.BatchSize),
		"paper":    strconv.FormatBool(norm.PaperScale),
		"eager":    strconv.FormatBool(norm.Eager),
		"seed":     strconv.FormatInt(norm.Seed, 10),
	}
	if pol, err := precision.ParsePolicy(norm.Precision); err == nil && !pol.AllF32() {
		m["precision"] = pol.String()
	} else if err != nil {
		m["precision"] = "invalid:" + norm.Precision
	}
	return m
}

// The one-pass key, fingerprint and batch fingerprint are, byte for
// byte, resultcache.Key of the config's fields with the seed, without it,
// and without the seed and the batch, over configs whose strings hold
// the key's separators and escape character.
func TestCanonicalMatchesResultcacheKey(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	pick := func(choices ...string) string { return choices[r.Intn(len(choices))] }
	str := func() string {
		const alphabet = `ab=;\,:f1`
		b := make([]byte, r.Intn(5))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return pick("", "avmnist", "mosei", "concat", "nano", string(b))
	}
	for i := 0; i < 5000; i++ {
		cfg := RunConfig{
			Workload:   str(),
			Variant:    str(),
			Device:     str(),
			BatchSize:  r.Intn(3) * r.Intn(1<<20),
			Seed:       int64(r.Intn(3)-1) * r.Int63(),
			Eager:      r.Intn(2) == 0,
			PaperScale: r.Intn(2) == 0,
			Precision:  pick("", "f32", "f16", "i8", "fusion=f16, head=i8", "head=f32", str()),
		}
		m := canonicalMap(cfg)
		key := resultcache.Key(m)
		delete(m, "seed")
		fp := resultcache.Key(m)
		delete(m, "batch")
		bfp := resultcache.Key(m)
		if got := cfg.cacheKey(); got != key {
			t.Fatalf("%+v: cacheKey %q, resultcache.Key %q", cfg, got, key)
		}
		if got := cfg.Fingerprint(); got != fp {
			t.Fatalf("%+v: Fingerprint %q, resultcache.Key %q", cfg, got, fp)
		}
		if got := cfg.BatchFingerprint(); got != bfp {
			t.Fatalf("%+v: BatchFingerprint %q, resultcache.Key %q", cfg, got, bfp)
		}
		if kc := cfg.Keyed(); kc.key != key || kc.Fingerprint() != fp {
			t.Fatalf("%+v: Keyed %q, %q; resultcache.Key %q, %q", cfg, kc.key, kc.Fingerprint(), key, fp)
		}
	}
}

// An entry is charged its encoded body, which is exactly the indented
// JSON of its RunResponse with a trailing newline.
func TestRunEntryBody(t *testing.T) {
	cr := NewCachedRunner(1 << 20)
	stage := map[string]float64{"encoder": 1.5}
	before := cr.Stats().Bytes
	e, err := cr.EntryThrough(context.Background(), RunConfig{Workload: "avmnist"}.Keyed(),
		func(context.Context, RunConfig) (*Report, map[string]float64, error) {
			return &Report{Workload: "avmnist"}, stage, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(RunResponse{Report: e.Report, StageLatencyMs: stage}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(e.Body, want) {
		t.Fatalf("entry body\n%s\nwant\n%s", e.Body, want)
	}
	if got := cr.Stats().Bytes - before; got != int64(len(e.Body)) {
		t.Fatalf("entry charged %d bytes, want its body length %d", got, len(e.Body))
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
