package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"mmbench"
	"mmbench/internal/batch"
)

// serveRun posts body to /v1/run on h without a network round trip.
func serveRun(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	return rec
}

// legacyRunBody is how /v1/run encoded a response before the body became
// part of the cache entry: a map through an indenting json.Encoder.
func legacyRunBody(t *testing.T, rep *mmbench.Report, stageMs map[string]float64) []byte {
	t.Helper()
	body := map[string]any{"report": rep}
	if len(stageMs) > 0 {
		body["stage_latency_ms"] = stageMs
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A miss and a hit write the same bytes, and they are exactly what the
// per-request encoding of the same report and stage map used to write —
// for an analytic run and for an eager one, which carries
// stage_latency_ms.
func TestRunBodyMatchesLegacyEncoding(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	for _, tc := range []struct {
		name, body string
		cfg        mmbench.RunConfig
	}{
		{"analytic", `{"workload":"avmnist","batch":16}`,
			mmbench.RunConfig{Workload: "avmnist", BatchSize: 16, PaperScale: true}},
		{"eager small", `{"workload":"avmnist","batch":2,"paper_scale":false,"eager":true,"seed":3}`,
			mmbench.RunConfig{Workload: "avmnist", BatchSize: 2, Eager: true, Seed: 3}},
		{"analytic f16", `{"workload":"mosei","batch":4,"precision":"f16"}`,
			mmbench.RunConfig{Workload: "mosei", BatchSize: 4, PaperScale: true, Precision: "f16"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			miss := serveRun(s.Handler(), tc.body)
			hit := serveRun(s.Handler(), tc.body)
			if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
				t.Fatalf("status miss %d hit %d: %s", miss.Code, hit.Code, miss.Body)
			}
			rep, stageMs, err := s.runner.RunProfiledCtxThrough(context.Background(), tc.cfg,
				func(context.Context, mmbench.RunConfig) (*mmbench.Report, map[string]float64, error) {
					t.Fatal("the entry was not cached")
					return nil, nil, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Eager != (len(stageMs) > 0) {
				t.Fatalf("stage map %v for eager=%v", stageMs, tc.cfg.Eager)
			}
			want := legacyRunBody(t, rep, stageMs)
			for name, rec := range map[string]*httptest.ResponseRecorder{"miss": miss, "hit": hit} {
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("%s body differs from the legacy encoding:\n got %q\nwant %q", name, got, want)
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
					t.Errorf("%s Content-Length %q, want %d", name, cl, len(want))
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s Content-Type %q", name, ct)
				}
			}
		})
	}
}

// maxHitAllocs bounds the allocations of one cache hit through the
// handler, request and recorder included. Encoding the report on every
// hit cost 114 here; writing the entry's bytes costs 45 (linux/amd64,
// Go 1.24). The margin absorbs runtime and net/http drift, not the ≈ 70
// allocations of a per-hit encode coming back.
const maxHitAllocs = 60

func TestRunHitAllocations(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	const body = `{"workload":"avmnist","batch":16}`
	if rec := serveRun(s.Handler(), body); rec.Code != http.StatusOK {
		t.Fatalf("prefill status %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(100, func() { serveRun(s.Handler(), body) })
	t.Logf("%.0f allocations per hit", allocs)
	if allocs > maxHitAllocs {
		t.Fatalf("a cache hit makes %.0f allocations, want ≤ %d: is the body encoded per request again?",
			allocs, maxHitAllocs)
	}
	if st := s.runner.Stats(); st.Executions != 1 {
		t.Fatalf("%d executions, want 1: the loop did not hit", st.Executions)
	}
}

// BenchmarkRunHit is one /v1/run cache hit through the handler: decode,
// canonicalisation, lookup and the write of the entry's bytes, without
// a network round trip.
func BenchmarkRunHit(b *testing.B) {
	s := New(Options{Workers: 1})
	b.Cleanup(func() { s.Close(context.Background()) })
	const body = `{"workload":"mosei","batch":32}`
	if rec := serveRun(s.Handler(), body); rec.Code != http.StatusOK {
		b.Fatalf("prefill status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		serveRun(s.Handler(), body)
	}
}

// A report with no JSON form (NaN is not a JSON number) fails its
// request with 500 and an error body, counts as an encode error, and is
// never cached: the next identical request executes again. Before the
// body was encoded with the entry, the report was cached and every hit
// sent a 200 status line with a truncated body.
func TestUnencodableReportIs500(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	var forwards atomic.Int64
	// Eager misses go through the batcher; this one returns NaN reports.
	s.batcher = batch.New(batch.Options{
		Run: func(_ context.Context, cfgs []mmbench.RunConfig) ([]*mmbench.Report, map[string]float64, error) {
			forwards.Add(1)
			reps := make([]*mmbench.Report, len(cfgs))
			for i, cfg := range cfgs {
				reps[i] = &mmbench.Report{Workload: cfg.Workload, LatencySeconds: math.NaN()}
			}
			return reps, nil, nil
		},
		Exec: s.admit,
	})
	const body = `{"workload":"avmnist","batch":2,"eager":true}`
	for i := int64(1); i <= 2; i++ {
		rec := serveRun(s.Handler(), body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500: %s", i, rec.Code, rec.Body)
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("request %d: error body %q (%v)", i, rec.Body, err)
		}
		if n := forwards.Load(); n != i {
			t.Fatalf("request %d: %d forwards, want %d: the failure was served from the cache", i, n, i)
		}
		if got := s.encodeErrors.Load(); got != uint64(i) {
			t.Fatalf("request %d: encode_errors %d, want %d", i, got, i)
		}
		if st := s.runner.Stats(); st.Entries != 0 {
			t.Fatalf("request %d: unencodable report cached: %+v", i, st)
		}
		if len(s.quar.entries) != 0 {
			t.Fatalf("request %d: an encode failure recorded a quarantine strike", i)
		}
	}
}
