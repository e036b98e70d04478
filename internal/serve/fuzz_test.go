package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mmbench"
)

// FuzzRunRequest posts arbitrary bodies to /v1/run on a fresh server.
// Whatever the body, the handler must not panic, must answer with
// well-formed JSON under an X-Request-Id header, must record no
// quarantine strike, and must leave a cache entry behind only when it
// answered 200. A body that is not one
// JSON object of known fields within the size limit, or that names an
// unknown workload, must get a 4xx.
//
// The decoder is under test, not the models: a well-formed request for a
// known workload executes only in the small flavour with at most 32
// samples (a few milliseconds); any other is skipped. The seed corpus is
// testdata/fuzz/FuzzRunRequest.
func FuzzRunRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		valid := decodes(body, &req) && known(req.Workload)
		if valid && (req.PaperScale == nil || *req.PaperScale || req.Batch > 32) {
			t.Skip("executes a paper-scale or wide run")
		}
		s, rec := fuzzPost(t, "/v1/run", body, valid, nil)
		want := 0
		if rec.Code == http.StatusOK {
			want = 1
		}
		if n := s.runner.Stats().Entries; n != want {
			t.Fatalf("status %d left %d cache entries, want %d: %s", rec.Code, n, want, rec.Body)
		}
	})
}

// FuzzSweepRequest posts arbitrary bodies to /v1/sweep and waits for the
// job an accepted sweep submits, with FuzzRunRequest's properties: a 4xx
// for a malformed body or an unknown workload — before any job exists —
// and never a panic, a non-JSON answer or a quarantine strike.
//
// Sweep cells are paper-scale: an eager grid, one of more than four
// cells or one with a batch above 32 is skipped. The seed corpus is
// testdata/fuzz/FuzzSweepRequest.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		valid := decodes(body, &req) && known(req.Workload)
		cells := len(req.Devices) * len(req.Batches) * max(1, len(req.Precisions))
		if valid && (req.Eager || cells > 4 || slices.ContainsFunc(req.Batches, func(b int) bool { return b > 32 })) {
			t.Skip("executes an eager or wide grid")
		}
		fuzzPost(t, "/v1/sweep", body, valid, func(s *Server, rec *httptest.ResponseRecorder) {
			if rec.Code != http.StatusAccepted {
				return
			}
			var accepted struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
				t.Fatal(err)
			}
			job, ok := s.pool.Get(accepted.JobID)
			if !ok {
				t.Fatalf("accepted sweep's job %q does not exist: %s", accepted.JobID, rec.Body)
			}
			<-job.Done()
		})
	})
}

// FuzzPlaceRequest posts arbitrary bodies to /v1/place with
// FuzzRunRequest's properties; only a 200 counts a placement request.
// A search over a paper-scale network or a batch above 32 is skipped; a
// menu that repeats a precision searches it once, so its length is not
// bounded. The seed corpus is testdata/fuzz/FuzzPlaceRequest.
func FuzzPlaceRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PlaceRequest
		valid := decodes(body, &req) && known(req.Workload)
		if valid && (req.PaperScale == nil || *req.PaperScale || req.Batch > 32) {
			t.Skip("searches a paper-scale network or a wide batch")
		}
		s, rec := fuzzPost(t, "/v1/place", body, valid, nil)
		want := uint64(0)
		if rec.Code == http.StatusOK {
			want = 1
		}
		if n := s.fleetStats().PlaceRequests; n != want {
			t.Fatalf("status %d counted %d placement requests, want %d", rec.Code, n, want)
		}
	})
}

// fuzzPost posts body to path on a fresh one-worker server, lets settle
// wait for whatever the answer started, closes the server and checks what
// every decoder must hold: the answer is JSON and carries a request id, a
// body that is not valid (malformed, or naming an unknown workload) gets a
// 4xx, no quarantine strike is recorded and no pooled buffer is left
// checked out.
func fuzzPost(t *testing.T, path string, body []byte, valid bool, settle func(*Server, *httptest.ResponseRecorder)) (*Server, *httptest.ResponseRecorder) {
	t.Helper()
	s := New(Options{Workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if settle != nil {
		settle(s, rec)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
	}
	if !validRequestID(rec.Header().Get(requestIDHeader)) {
		t.Fatalf("status %d without a request id: %q", rec.Code, rec.Header().Get(requestIDHeader))
	}
	if !valid && rec.Code/100 != 4 {
		t.Fatalf("status %d for a malformed body or unknown workload, want 4xx: %s", rec.Code, rec.Body)
	}
	if n := len(s.quar.entries); n != 0 {
		t.Fatalf("status %d recorded quarantine strikes for %d fingerprints", rec.Code, n)
	}
	if n := s.stats().Engine.PoolOutstanding; n != 0 {
		t.Fatalf("status %d left %d pooled buffers checked out after Close", rec.Code, n)
	}
	return s, rec
}

// decodes reports whether body decodes into v the way the server's
// decoder accepts it: within the size limit, known fields only, one JSON
// value.
func decodes(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return len(body) <= maxBodyBytes && json.Valid(body) && dec.Decode(v) == nil
}

// known reports whether name is a benchmark workload.
func known(name string) bool {
	return slices.ContainsFunc(mmbench.Workloads(), func(w mmbench.Workload) bool { return w.Name == name })
}
