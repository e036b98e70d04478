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
// well-formed JSON, must record no quarantine strike, and must leave a
// cache entry behind only when it answered 200. A body that is not one
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
		wellFormed := len(body) <= maxBodyBytes && json.Valid(body) && strictDecode(body, &req) == nil
		known := slices.ContainsFunc(mmbench.Workloads(), func(w mmbench.Workload) bool { return w.Name == req.Workload })
		if wellFormed && known && (req.PaperScale == nil || *req.PaperScale || req.Batch > 32) {
			t.Skip("executes a paper-scale or wide run")
		}

		s := New(Options{Workers: 1})
		defer s.Close(context.Background())
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))

		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
		}
		if (!wellFormed || !known) && rec.Code/100 != 4 {
			t.Fatalf("status %d, want 4xx (well-formed %v, known workload %v): %s",
				rec.Code, wellFormed, known, rec.Body)
		}
		if n := len(s.quar.entries); n != 0 {
			t.Fatalf("status %d recorded quarantine strikes for %d fingerprints", rec.Code, n)
		}
		want := 0
		if rec.Code == http.StatusOK {
			want = 1
		}
		if n := s.runner.Stats().Entries; n != want {
			t.Fatalf("status %d left %d cache entries, want %d: %s", rec.Code, n, want, rec.Body)
		}
	})
}

// strictDecode decodes body as one RunRequest the way the server's
// decoder accepts it: known fields only, one JSON value.
func strictDecode(body []byte, req *RunRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}
