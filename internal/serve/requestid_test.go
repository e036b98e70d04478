package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// send makes one request to the server's handler with the given
// X-Request-Id (none when id is empty) and returns the recorded answer.
func send(t *testing.T, s *Server, method, path, body, id string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// A well-formed client id comes back on every kind of answer: a /v1/run
// miss and the hit that follows (whose body is the miss's bytes — the id
// is a header only), /v1/stats and /metrics.
func TestRequestIDEchoed(t *testing.T) {
	s, ts := newTestServer(t)
	const id = "client.Req_42-a"
	const run = `{"workload":"avmnist","batch":2}`
	var bodies [][]byte
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/run", run},
		{http.MethodPost, "/v1/run", run},
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(requestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.method, c.path, resp.StatusCode, raw)
		}
		if got := resp.Header.Get(requestIDHeader); got != id {
			t.Errorf("%s %s: %s %q, want %q", c.method, c.path, requestIDHeader, got, id)
		}
		if c.path == "/v1/run" {
			bodies = append(bodies, raw)
		}
	}
	if st := s.runner.Stats(); st.Executions != 1 || st.Hits != 1 {
		t.Fatalf("result cache after a miss and a hit: %+v", st)
	}
	if !bytes.Equal(bodies[0], bodies[1]) || bytes.Contains(bodies[0], []byte(id)) {
		t.Errorf("a hit's body differs from the miss's, or a body carries the id:\n%s\n%s", bodies[0], bodies[1])
	}
}

// A request without an id, or with one that is not a 1–64 character
// [A-Za-z0-9._-] token, gets a fresh id the server minted — never the
// client's value, and never one it gave another request.
func TestRequestIDMinted(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close(t.Context())
	seen := map[string]bool{}
	for _, client := range []string{"", "", "a\r\nSet-Cookie: x=1", "a\nb", strings.Repeat("x", 65), "spaced id", "ü"} {
		got := send(t, s, http.MethodGet, "/v1/devices", "", client).Header().Get(requestIDHeader)
		if !validRequestID(got) || got == client || seen[got] {
			t.Errorf("client id %q answered with %q (seen before: %t)", client, got, seen[got])
		}
		seen[got] = true
	}
	if long := strings.Repeat("x", 64); send(t, s, http.MethodGet, "/v1/devices", "", long).Header().Get(requestIDHeader) != long {
		t.Errorf("a 64-character id was not echoed")
	}
}

// An error body names the request it answers: its request_id is the
// response's header, supplied or minted.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close(t.Context())
	for _, c := range []struct{ path, body, id string }{
		{"/v1/run", `{"workload":"nope"}`, "bad-workload-1"},
		{"/v1/run", `{"workload":`, ""},
		{"/v1/sweep", `{"workload":"avmnist"}`, "no-grid"},
	} {
		rec := send(t, s, http.MethodPost, c.path, c.body, c.id)
		if rec.Code/100 != 4 {
			t.Fatalf("%s %s: status %d, want 4xx", c.path, c.body, rec.Code)
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		header := rec.Header().Get(requestIDHeader)
		if e.RequestID == "" || e.RequestID != header || (c.id != "" && header != c.id) {
			t.Errorf("%s %s: body request_id %q, header %q, sent %q", c.path, c.body, e.RequestID, header, c.id)
		}
	}
}
