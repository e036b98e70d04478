package obs

import (
	"sync"
	"time"

	"mmbench/internal/engine"
	"mmbench/internal/kernels"
)

// Span is one measured wall-clock interval of eager execution,
// attributed to the kernel spec whose emission opened it and to the
// (stage, modality) scope it ran under.
//
// Attribution model: operators emit their kernel spec immediately
// before executing the eager math, so a kernel's span runs from its
// emission to the next profiler event on the same shard (the following
// kernel emission, a stage change, or the shard's end). Compound
// operators that emit several specs back-to-back before computing
// attribute their fused math to the last spec of the run; per-stage
// wall times are unaffected by that skew.
type Span struct {
	// Name is the kernel name ("gemm_512x512x64"), or a region label
	// ("backward") for explicit regions.
	Name  string
	Class kernels.Class
	// Stage and Modality are the ops.Ctx scope the span ran under
	// (empty outside the three network stages — losses, optimizer).
	Stage    string
	Modality string
	// Start and End are offsets from the profiler's epoch.
	Start, End time.Duration
	// FLOPs and Bytes come from the emitted spec, so spans can be
	// rolled up by arithmetic intensity as well as by time.
	FLOPs, Bytes int64
	// Track overrides the derived display track (engine worker spans);
	// empty means derive from Stage/Modality.
	Track string
}

// TrackName returns the display track the span belongs to: one track
// per modality branch for encoder-stage spans, the main track for
// everything else, unless an explicit track (engine workers) is set.
func (s *Span) TrackName() string {
	if s.Track != "" {
		return s.Track
	}
	if s.Stage == "encoder" && s.Modality != "" {
		return "branch:" + s.Modality
	}
	return "main"
}

// maxSpans bounds the spans a profiler retains (kernel and engine spans
// are budgeted separately). Beyond it, spans are counted as dropped —
// never silently truncated — and the Chrome exporter reports the drop.
const maxSpans = 1 << 18

// Profiler collects wall-clock spans for one profiled run (or one
// training session). It hands out Shards — single-goroutine span
// recorders — and merges them deterministically: the branch executor
// merges per-branch shards in fixed modality order at the join.
//
// The profiler is a pure observer. It never touches tensor data, tapes
// or scheduling, so numeric results with a profiler attached are
// bitwise identical to a run without one, at any worker count and under
// either branch schedule.
type Profiler struct {
	epoch time.Time

	mu          sync.Mutex
	spans       []Span
	engineSpans []Span
	dropped     int64
	engDropped  int64

	root *Shard

	// capturing marks an installed engine task observer (CLI trace
	// export only — the observer is process-global, so concurrent runs
	// must not both install one).
	capturing bool
}

// NewProfiler starts a profiler; its epoch (span time zero) is now.
func NewProfiler() *Profiler {
	p := &Profiler{epoch: time.Now()}
	p.root = &Shard{p: p}
	return p
}

// Root returns the main-track shard, used by the coordinating
// goroutine. A nil profiler returns a nil shard, which every Shard
// method accepts, so callers can write c.Prof = prof.Root()
// unconditionally.
func (p *Profiler) Root() *Shard {
	if p == nil {
		return nil
	}
	return p.root
}

// now returns the offset from the profiler epoch.
func (p *Profiler) now() time.Duration { return time.Since(p.epoch) }

// Fork returns a fresh shard for one concurrently-executing branch.
func (p *Profiler) Fork() *Shard {
	if p == nil {
		return nil
	}
	return &Shard{p: p}
}

// StageWall computes, from every span merged so far (the root shard is
// merged implicitly; call it from the root's goroutine), the wall-clock
// seconds each stage occupied: latest span end minus earliest span
// start per stage. With parallel encoder branches the encoder stage
// spans overlap across tracks, so wall time — not the per-span sum — is
// the per-stage latency a request experiences.
func (p *Profiler) StageWall() map[string]float64 {
	if p == nil {
		return nil
	}
	p.root.End()
	p.root.Merge()
	p.mu.Lock()
	defer p.mu.Unlock()
	type window struct {
		lo, hi time.Duration
		seen   bool
	}
	wins := make(map[string]*window)
	for i := range p.spans {
		s := &p.spans[i]
		if s.Stage == "" {
			continue
		}
		w := wins[s.Stage]
		if w == nil {
			w = &window{}
			wins[s.Stage] = w
		}
		if !w.seen || s.Start < w.lo {
			w.lo = s.Start
		}
		if !w.seen || s.End > w.hi {
			w.hi = s.End
		}
		w.seen = true
	}
	out := make(map[string]float64, len(wins))
	for stage, w := range wins {
		out[stage] = (w.hi - w.lo).Seconds()
	}
	return out
}

// Profile is a sealed profiling result.
type Profile struct {
	// Spans are the kernel/region spans in merge order; EngineSpans are
	// the engine helper-worker chunk spans (empty unless
	// CaptureEngineTasks was on).
	Spans       []Span
	EngineSpans []Span
	// StageSeconds is the per-stage wall time (see StageWall).
	StageSeconds map[string]float64
	// Dropped counts spans discarded beyond the retention budget; the
	// Chrome exporter surfaces it so a truncated trace is never mistaken
	// for a complete one.
	Dropped int64
}

// Finish seals the profiler: the root shard's pending span is closed,
// remaining shard spans are merged, and the collected spans are
// returned. Call it once, from the root's goroutine, after every forked
// shard has been merged.
func (p *Profiler) Finish() *Profile {
	if p == nil {
		return nil
	}
	stage := p.StageWall() // also merges root
	if p.capturing {
		p.StopEngineCapture()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Profile{
		Spans:        p.spans,
		EngineSpans:  p.engineSpans,
		StageSeconds: stage,
		Dropped:      p.dropped + p.engDropped,
	}
}

// CaptureEngineTasks installs this profiler as the process-wide engine
// task observer: every chunk a dedicated engine worker executes is
// recorded as a span on an "engine<id>:w<k>" track. The observer is
// global, so only one run at a time may capture (the CLI trace export
// path); Finish or StopEngineCapture uninstalls it.
func (p *Profiler) CaptureEngineTasks() {
	p.capturing = true
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	engine.SetTaskObserver(func(engineID int64, worker int, start, end time.Time) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.engineSpans) >= maxSpans {
			p.engDropped++
			return
		}
		p.engineSpans = append(p.engineSpans, Span{
			Name:  "chunk",
			Class: kernels.Other,
			Track: engineTrack(engineID, worker),
			Start: start.Sub(epoch),
			End:   end.Sub(epoch),
		})
	})
}

// StopEngineCapture uninstalls the engine task observer.
func (p *Profiler) StopEngineCapture() {
	engine.SetTaskObserver(nil)
	p.capturing = false
}

// Shard records spans for one goroutine — the coordinator (root) or one
// encoder branch. Methods are nil-safe so operator hot paths can call
// them unconditionally after one nil check, and Ctx forks can carry a
// nil shard when profiling is off.
//
// A shard must only be written by one goroutine at a time, and must not
// be written after Merge hands its spans to the profiler (Merge resets
// the shard, so a root shard may keep recording after a merge).
type Shard struct {
	p        *Profiler
	stage    string
	modality string
	spans    []Span
	pending  Span
	open     bool
	dropped  int64
}

// Fork returns a fresh shard on the same profiler, for one
// concurrently-executing branch. The branch executor forks once per
// branch, because a shard is single-goroutine.
func (s *Shard) Fork() *Shard {
	if s == nil {
		return nil
	}
	return s.p.Fork()
}

// EnterStage closes any pending span and moves the shard into a
// (stage, modality) scope, mirroring ops.Ctx.EnterStage.
func (s *Shard) EnterStage(stage, modality string) {
	if s == nil {
		return
	}
	s.closeAt(s.p.now())
	s.stage, s.modality = stage, modality
}

// Kernel opens a span for an emitted kernel spec, closing the previous
// pending span at the same instant.
func (s *Shard) Kernel(spec kernels.Spec) {
	if s == nil {
		return
	}
	t := s.p.now()
	s.closeAt(t)
	s.pending = Span{
		Name:     spec.Name,
		Class:    spec.Class,
		Stage:    s.stage,
		Modality: s.modality,
		Start:    t,
		FLOPs:    spec.FLOPs,
		Bytes:    spec.Bytes(),
	}
	s.open = true
}

// Region brackets an explicit non-kernel phase (backward, optimizer):
// it closes the pending span and returns a func that records the region
// span when called.
func (s *Shard) Region(name string) func() {
	if s == nil {
		return func() {}
	}
	t0 := s.p.now()
	s.closeAt(t0)
	return func() {
		s.append(Span{
			Name: name, Class: kernels.Other,
			Stage: s.stage, Modality: s.modality,
			Start: t0, End: s.p.now(),
		})
	}
}

// End closes the pending span (the shard's last kernel ran until now).
func (s *Shard) End() {
	if s == nil {
		return
	}
	s.closeAt(s.p.now())
}

func (s *Shard) closeAt(t time.Duration) {
	if !s.open {
		return
	}
	s.pending.End = t
	s.append(s.pending)
	s.open = false
}

func (s *Shard) append(sp Span) {
	if len(s.spans) >= maxSpans {
		s.dropped++
		return
	}
	s.spans = append(s.spans, sp)
}

// Merge hands the shard's spans to the profiler and resets the shard.
// The branch executor calls it at the join in fixed modality order, so
// the profiler's span list order is deterministic for a given schedule;
// a pending span (possible only on a panic path) is closed first.
func (s *Shard) Merge() {
	if s == nil || s.p == nil {
		return
	}
	s.closeAt(s.p.now())
	if len(s.spans) == 0 && s.dropped == 0 {
		return
	}
	p := s.p
	p.mu.Lock()
	room := maxSpans - len(p.spans)
	if room < 0 {
		room = 0
	}
	take := len(s.spans)
	if take > room {
		p.dropped += int64(take - room)
		take = room
	}
	p.spans = append(p.spans, s.spans[:take]...)
	p.dropped += s.dropped
	p.mu.Unlock()
	s.spans = s.spans[:0]
	s.dropped = 0
}

// Spans returns the shard's locally buffered spans (testing hook).
func (s *Shard) Spans() []Span {
	if s == nil {
		return nil
	}
	return s.spans
}

// engineTrack names the display track of one engine helper worker.
func engineTrack(engineID int64, worker int) string {
	return "engine" + itoa(engineID) + ":w" + itoa(int64(worker))
}

// itoa avoids fmt on the engine-span hot path.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Dropped reports spans discarded so far beyond the retention budget.
func (p *Profiler) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped + p.engDropped
}
