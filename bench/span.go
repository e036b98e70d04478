package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the ID of the span that caused this one (0
// for a root).
type span struct {
	ID, Parent int
	Request    int
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the workload ends. A nil
// recorder records nothing, so untraced runs share the traced code path.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID (0 from a nil recorder or under
// a parent that was itself not recorded).
func (r *recorder) start(parent, request int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// traceEvent is one Chrome trace-event entry. Spans are written as
// nestable async events keyed by request, so concurrent requests get a
// track each without the harness assigning threads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace flushes the spans as Chrome trace-event JSON, the format of
// the CLI's -trace-out, loadable in Perfetto or chrome://tracing.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	events := make([]traceEvent, 0, 2*len(spans))
	for _, s := range spans {
		id := fmt.Sprintf("0x%x", s.Request)
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		events = append(events,
			traceEvent{Name: s.Name, Cat: "bench", Ph: "b", Ts: us(s.Start), Pid: 1, Tid: 1, ID: id,
				Args: map[string]any{"span": s.ID, "parent": s.Parent}},
			traceEvent{Name: s.Name, Cat: "bench", Ph: "e", Ts: us(s.End), Pid: 1, Tid: 1, ID: id})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
