package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// The harness reads and writes paths relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// BENCHMARK.json declares what this program reports: same workloads,
// same metric names and units, and a bounded setup_s.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloadList))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d is declared as %q (%q), implemented as %q (%q)",
				i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	check := func(kind string, declared []decl, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%d %s metrics declared, %d reported", len(declared), kind, len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s metric %d is declared as %s [%s], reported as %s [%s]",
					kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s, lower is better")
	}
}

// The -short smoke run of every workload: outputs check out and the
// result carries the declared metrics. Latency percentiles may be
// missing — a 1 s window cannot support them.
func TestShortSmoke(t *testing.T) {
	for _, w := range workloadList {
		res, err := run(options{w: w, seed: 1, seconds: 1, short: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok && d.name == "lat_p50_ms" {
				continue
			}
			// On a slow enough machine (the race detector) no op meets its
			// latency limit, so goodput alone may read 0.
			if !ok || m.Unit != d.unit || m.Value < 0 || (m.Value == 0 && d.name != "goodput_rps") {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
	}
}

// A traced run reports every per-layer metric, writes the span file, and
// confirms the workload's premise: unique seeds never hit the cache.
func TestShortTraced(t *testing.T) {
	w := workloadByName("serve_eager_open")
	res, err := run(options{w: w, seed: 1, seconds: 1, trace: true, short: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("traced run failed its output checks")
	}
	for _, d := range perLayer {
		if d.name == "loadgen.lat_p95_ms" {
			continue // a 1 s window cannot support it
		}
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s = %+v (present %v), want a value in %s", d.name, m, ok, d.unit)
		}
	}
	if got := res.Metrics["resultcache.hit_ratio"].Value; got != 0 {
		t.Errorf("resultcache.hit_ratio = %g on unique seeds, want 0", got)
	}
	if got := res.Metrics["engine.pool_outstanding"].Value; got != 0 {
		t.Errorf("engine.pool_outstanding = %g at quiescence, want 0", got)
	}
	if _, err := os.Stat("bench/out/serve_eager_open.trace.json"); err != nil {
		t.Error(err)
	}
}
