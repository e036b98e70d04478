package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mmbench"
	"mmbench/internal/workloads"
)

// Same seed ⇒ byte-identical request list; different seed ⇒ a different one.
func TestRequestListsAreSeeded(t *testing.T) {
	for _, w := range workloadList {
		list := func(seed uint64) string {
			if w.sweeps != nil {
				return fmt.Sprintf("%+v", w.sweeps(seed, 2))
			}
			return fmt.Sprintf("%+v", w.requests(w, seed, 2))
		}
		if list(7) != list(7) {
			t.Errorf("%s: two lists from seed 7 differ", w.name)
		}
		if list(7) == list(8) {
			t.Errorf("%s: seeds 7 and 8 give the same list", w.name)
		}
	}
}

func TestOpenScheduleFillsTheWindow(t *testing.T) {
	w := workloadByName("serve_eager_open")
	const seconds = 20
	list := w.requests(w, 3, seconds)[0]
	if want := int(openRate * seconds); len(list) != want {
		t.Fatalf("got %d arrivals, want %d", len(list), want)
	}
	seeds := make(map[int64]bool)
	for i, o := range list {
		if o.due < 0 || o.due >= seconds*time.Second {
			t.Errorf("arrival %d due at %v, outside the window", i, o.due)
		}
		if i > 0 && o.due < list[i-1].due {
			t.Errorf("arrival %d is due before arrival %d", i, i-1)
		}
		seeds[o.cfg.Seed] = true
	}
	if len(seeds) != len(list) {
		t.Errorf("%d distinct data seeds for %d requests: repeats would hit the cache", len(seeds), len(list))
	}
}

// Open-loop latency counts from when the request was due, so a late
// send is charged to the request, and the lateness is reported as lag.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "{}")
	}))
	defer ts.Close()
	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	tgt := &target{url: ts.URL, client: ts.Client(), chk: chk, col: &collector{}}
	late := 50 * time.Millisecond
	tgt.send(op{cfg: eager("mosei", "", 2, "")}, 0, time.Now().Add(-late), false)
	s := tgt.col.samples[0]
	if s.lag < late || s.lat < s.lag {
		t.Errorf("sample has lat %v and lag %v, want both to include the %v the send ran late", s.lat, s.lag, late)
	}
	if s.ok {
		t.Error("a body without a report passed the output checks")
	}
}

// Each client of the mixed loop owns its configs: no two requests in
// flight can share a batch fingerprint, so the batcher never merges.
func TestMixedClientsShareNoFingerprint(t *testing.T) {
	w := workloadByName("serve_mixed_closed")
	owner := make(map[string]int)
	for c, list := range w.requests(w, 5, 1) {
		for _, o := range list {
			fp := o.cfg.BatchFingerprint()
			if prev, ok := owner[fp]; ok && prev != c {
				t.Fatalf("clients %d and %d both send %s/%s", prev, c, o.cfg.Workload, o.cfg.Variant)
			}
			owner[fp] = c
		}
	}
	if len(owner) != len(w.configs) {
		t.Errorf("lists use %d fingerprints, want all %d configs", len(owner), len(w.configs))
	}
}

func TestCachedConfigsSpanWorkloadsAndDevices(t *testing.T) {
	w := workloadByName("serve_cached_closed")
	keys, pairs := make(map[string]bool), make(map[string]bool)
	for _, cfg := range w.configs {
		keys[cfg.Fingerprint()] = true
		pairs[cfg.Workload+"/"+cfg.Device] = true
	}
	if len(keys) != cachedConfigs {
		t.Errorf("%d distinct configs, want %d", len(keys), cachedConfigs)
	}
	if want := len(allWorkloads) * len(devices); len(pairs) != want {
		t.Errorf("%d workload/device pairs, want all %d", len(pairs), want)
	}
	if got := len(mmbench.Workloads()); got != len(allWorkloads) {
		t.Errorf("the suite has %d workloads, the cached list knows %d", got, len(allWorkloads))
	}
}

// Every float32 config a workload can send has a committed digest.
func TestGoldenCoversEveryFloat32Config(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, w := range workloadList {
		for _, cfg := range w.configs {
			if cfg.Precision != "" && cfg.Precision != "f32" {
				continue
			}
			info, err := workloads.Get(cfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s/%s/b%d", cfg.Workload, cmp.Or(cfg.Variant, info.Fusions[0]), cmp.Or(cfg.Device, "2080ti"), cfg.BatchSize)
			want[key] = true
			if golden[key] == "" {
				t.Errorf("golden.json has no digest for %s; run bench/run.sh -update-golden", key)
			}
		}
	}
	if len(golden) != len(want) {
		t.Errorf("golden.json has %d digests, the workloads need %d", len(golden), len(want))
	}
}
