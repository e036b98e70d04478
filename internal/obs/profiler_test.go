package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"mmbench/internal/kernels"
)

func spec(name string) kernels.Spec {
	return kernels.Spec{Name: name, Class: kernels.Gemm, FLOPs: 100}
}

func TestNilProfilerAndShardAreSafe(t *testing.T) {
	var p *Profiler
	s := p.Root()
	if s != nil {
		t.Fatal("nil profiler returned non-nil root")
	}
	// Every shard method must be a no-op on nil.
	s.EnterStage("encoder", "image")
	s.Kernel(spec("k"))
	s.Region("backward")()
	s.End()
	s.Merge()
	s.Fork().Kernel(spec("k"))
	if p.Finish() != nil {
		t.Fatal("nil profiler produced data")
	}
}

func TestShardSpansAndStages(t *testing.T) {
	p := NewProfiler()
	root := p.Root()
	root.EnterStage("encoder", "image")
	root.Kernel(spec("conv_a"))
	root.Kernel(spec("conv_b"))
	root.EnterStage("fusion", "")
	root.Kernel(spec("gemm_f"))
	pr := p.Finish()

	// Finish closes and merges the root's pending span (gemm_f).
	if len(pr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(pr.Spans), pr.Spans)
	}
	names := []string{"conv_a", "conv_b", "gemm_f"}
	stages := []string{"encoder", "encoder", "fusion"}
	for i, sp := range pr.Spans {
		if sp.Name != names[i] || sp.Stage != stages[i] {
			t.Errorf("span %d = %q in %q, want %q in %q", i, sp.Name, sp.Stage, names[i], stages[i])
		}
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts: %v > %v", i, sp.Start, sp.End)
		}
	}
	// conv_a closes exactly when conv_b opens.
	if pr.Spans[0].End != pr.Spans[1].Start {
		t.Errorf("adjacent spans not contiguous: %v vs %v", pr.Spans[0].End, pr.Spans[1].Start)
	}
}

func TestForkedShardsMergeInOrder(t *testing.T) {
	p := NewProfiler()
	a, b := p.Fork(), p.Fork()
	b.EnterStage("encoder", "text")
	b.Kernel(spec("emb"))
	b.End()
	a.EnterStage("encoder", "image")
	a.Kernel(spec("conv"))
	a.End()
	// Merge in modality order regardless of execution order.
	a.Merge()
	b.Merge()
	pr := p.Finish()
	if len(pr.Spans) != 2 || pr.Spans[0].Name != "conv" || pr.Spans[1].Name != "emb" {
		t.Fatalf("merge order not deterministic: %+v", pr.Spans)
	}
	if tr := pr.Spans[0].TrackName(); tr != "branch:image" {
		t.Errorf("encoder span track = %q, want branch:image", tr)
	}
	if tr := pr.Spans[1].TrackName(); tr != "branch:text" {
		t.Errorf("encoder span track = %q, want branch:text", tr)
	}
}

func TestTrackNames(t *testing.T) {
	cases := []struct {
		span Span
		want string
	}{
		{Span{Stage: "encoder", Modality: "image"}, "branch:image"},
		{Span{Stage: "fusion"}, "main"},
		{Span{}, "main"},
		{Span{Track: "engine3:w1", Stage: "encoder", Modality: "image"}, "engine3:w1"},
	}
	for _, c := range cases {
		if got := c.span.TrackName(); got != c.want {
			t.Errorf("TrackName(%+v) = %q, want %q", c.span, got, c.want)
		}
	}
}

func TestChromeTraceValidAndMonotone(t *testing.T) {
	p := NewProfiler()
	img, txt := p.Fork(), p.Fork()
	img.EnterStage("encoder", "image")
	for i := 0; i < 5; i++ {
		img.Kernel(spec("conv"))
	}
	img.End()
	txt.EnterStage("encoder", "text")
	for i := 0; i < 5; i++ {
		txt.Kernel(spec("emb"))
	}
	txt.End()
	// Deliberately merge out of order: the exporter must still emit
	// monotone timestamps per track.
	txt.Merge()
	img.Merge()
	root := p.Root()
	root.EnterStage("fusion", "")
	root.Kernel(spec("gemm"))
	pr := p.Finish()

	var buf bytes.Buffer
	if err := pr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[int]string{}
	lastTs := map[int]float64{}
	events := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			tracks[ev.Tid] = ev.Args["name"].(string)
		case "X":
			events++
			if ev.Ts < lastTs[ev.Tid] {
				t.Errorf("track %d (%s): ts %v after %v — not monotone",
					ev.Tid, tracks[ev.Tid], ev.Ts, lastTs[ev.Tid])
			}
			lastTs[ev.Tid] = ev.Ts
		}
	}
	if events != 11 {
		t.Fatalf("got %d complete events, want 11", events)
	}
	wantTracks := map[string]bool{"main": true, "branch:image": true, "branch:text": true}
	for _, name := range tracks {
		delete(wantTracks, name)
	}
	if len(wantTracks) != 0 {
		t.Fatalf("missing tracks %v in %v", wantTracks, tracks)
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	p := NewProfiler()
	s := p.Fork()
	for i := 0; i < maxSpans+10; i++ {
		s.Kernel(spec("k"))
	}
	s.End()
	s.Merge()
	pr := p.Finish()
	if len(pr.Spans) != maxSpans {
		t.Fatalf("retained %d spans, want cap %d", len(pr.Spans), maxSpans)
	}
	if pr.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", pr.Dropped)
	}
	var buf bytes.Buffer
	if err := pr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["dropped_spans"] == nil {
		t.Fatal("truncated trace does not report dropped_spans")
	}
}
