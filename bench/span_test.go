package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "child", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(20), End: ms(50)},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: ms(90), End: ms(120)}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self["parent"]; len(got) != 1 || got[0] != ms(50) {
		t.Errorf("parent self time = %v, want [50ms]: children cover 10–50 and 90–100", got)
	}
	if got := self["child"]; len(got) != 3 || got[0] != ms(20) {
		t.Errorf("leaf self times = %v, want their own durations", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.start(0, 1, "x"); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r.finish(0)
}

func TestWriteTraceIsChromeTraceJSON(t *testing.T) {
	r := newRecorder()
	root := r.start(0, 7, "request")
	child := r.start(root, 7, "client.rtt")
	r.finish(child)
	r.finish(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want a begin and an end per span", len(doc.TraceEvents))
	}
	begins := 0
	for i, ev := range doc.TraceEvents {
		if ev.ID != "0x7" {
			t.Errorf("event %d has id %q, want the request id 0x7", i, ev.ID)
		}
		if i > 0 && ev.Ts < doc.TraceEvents[i-1].Ts {
			t.Errorf("event %d goes back in time", i)
		}
		if ev.Ph == "b" {
			begins++
		}
	}
	if begins != 2 {
		t.Errorf("got %d begin events, want 2", begins)
	}
}
