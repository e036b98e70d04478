// Package trace builds the modeled execution timeline of one inference (or
// training step): GPU kernels priced by the device model and laid into
// per-modality streams, host-side (CPU + framework runtime) segments,
// host↔device transfers, and the synchronization barrier that joins every
// modality stream before the fusion stage. It is MMBench's stand-in for an
// Nsight Systems timeline.
package trace

import (
	"fmt"
	"sort"
	"unsafe"

	"mmbench/internal/device"
	"mmbench/internal/kernels"
)

// KernelEvent is one GPU kernel launch.
type KernelEvent struct {
	Spec       kernels.Spec
	Metrics    device.Metrics
	Stage      string
	Modality   string
	Stream     int
	Start, End float64 // seconds on the modeled timeline
}

// HostEvent is one CPU + runtime segment (data loading, preprocessing,
// intermediate-data handling, dispatch overhead).
type HostEvent struct {
	Name       string
	Stage      string
	Modality   string
	Seconds    float64
	Start, End float64
}

// TransferEvent is one host↔device copy.
type TransferEvent struct {
	Name       string
	Bytes      int64
	Modality   string
	Start, End float64
}

// Trace is the completed timeline.
type Trace struct {
	Device    *device.Profile
	Kernels   []KernelEvent
	Hosts     []HostEvent
	Transfers []TransferEvent
	// Wall is the modeled end-to-end latency in seconds.
	Wall float64
	// StreamBusy maps stream id to busy seconds.
	StreamBusy map[int]float64
	// HostBusy is total host-segment seconds.
	HostBusy float64
	// TransferSeconds is total copy time.
	TransferSeconds float64
}

// GPUBusy returns total kernel-execution seconds across streams. The
// sum runs in stream-id order: float addition is not associative, so
// summing in map iteration order would wobble the total by an ulp
// between identical runs, breaking report bitwise reproducibility.
func (t *Trace) GPUBusy() float64 {
	ids := make([]int, 0, len(t.StreamBusy))
	for id := range t.StreamBusy {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var s float64
	for _, id := range ids {
		s += t.StreamBusy[id]
	}
	return s
}

// Builder accumulates events while a network runs. It implements
// ops.Recorder (Kernel, Host) and mmnet.Scoper (SetScope).
type Builder struct {
	dev       *device.Profile
	modStream map[string]int
	scope     struct{ stage, modality string }

	hostClock float64
	streams   []float64
	// gpuClock serializes streams on devices too small to run modality
	// streams concurrently (edge boards): with few SMs, concurrent
	// kernels contend for the same execution resources, so the model
	// serializes them. Large GPUs leave it unused.
	gpuClock   float64
	concurrent bool

	kernels   []KernelEvent
	hosts     []HostEvent
	transfers []TransferEvent
	busy      map[int]float64
	hostBusy  float64
	xferTotal float64
}

// concurrentSMThreshold is the SM count above which per-modality streams
// genuinely overlap; below it the device serializes kernels ("GPU servers
// possess more idle resources" — the paper's explanation for the lower
// multi/uni latency ratio on servers).
const concurrentSMThreshold = 32

// dispatchHostFraction scales the per-kernel CPU dispatch cost relative to
// the device's framework overhead. Eager frameworks pay roughly one full
// framework-op overhead per kernel launch (Python dispatch, shape checks,
// allocator calls), which is why many-small-kernel fusion networks become
// CPU-bound in the paper's Figure 11.
const dispatchHostFraction = 1.0

// NewBuilder creates a timeline builder for a device and modality list.
// Each modality gets its own stream; fusion and head run on the main
// stream 0 after the join barrier.
func NewBuilder(dev *device.Profile, modalities []string) *Builder {
	b := &Builder{
		dev:        dev,
		modStream:  make(map[string]int, len(modalities)),
		streams:    make([]float64, len(modalities)+1),
		busy:       make(map[int]float64),
		concurrent: dev.SMs >= concurrentSMThreshold,
	}
	for i, m := range modalities {
		b.modStream[m] = i + 1 // stream 0 is the main/fusion stream
	}
	return b
}

// SetScope attributes subsequent events to a stage and modality.
func (b *Builder) SetScope(stage, modality string) {
	b.scope.stage = stage
	b.scope.modality = modality
}

// streamFor maps the current scope to a stream id.
func (b *Builder) streamFor() int {
	if b.scope.stage == "encoder" {
		if s, ok := b.modStream[b.scope.modality]; ok {
			return s
		}
	}
	return 0
}

// Kernel prices and places one kernel launch (ops.Recorder). Each launch
// also costs host dispatch time (framework + driver); the launch is
// asynchronous, so the dispatch advances the host clock without gating the
// stream.
func (b *Builder) Kernel(spec kernels.Spec) {
	m := b.dev.Price(spec)
	s := b.streamFor()

	dispatch := b.dev.HostOpUs * dispatchHostFraction * 1e-6
	b.hostClock += dispatch
	b.hostBusy += dispatch

	start := b.streams[s]
	if !b.concurrent && b.gpuClock > start {
		start = b.gpuClock
	}
	if b.hostClock > start {
		// The kernel cannot start before its dispatch was issued.
		start = b.hostClock
	}
	end := start + m.Seconds
	b.streams[s] = end
	if !b.concurrent {
		b.gpuClock = end
	}
	b.busy[s] += m.Seconds

	b.kernels = append(b.kernels, KernelEvent{
		Spec: spec, Metrics: m,
		Stage: b.scope.stage, Modality: b.scope.modality,
		Stream: s, Start: start, End: end,
	})
}

// Host places one CPU + runtime segment (ops.Recorder). The segment gates
// the current scope's stream: device work issued afterwards cannot start
// before the host work finishes.
func (b *Builder) Host(name string, flops, bytes int64, nOps int) {
	d := b.dev.HostSeconds(flops, bytes, nOps)
	start := b.hostClock
	end := start + d
	b.hostClock = end
	b.hostBusy += d
	s := b.streamFor()
	if b.streams[s] < end {
		b.streams[s] = end
	}
	b.hosts = append(b.hosts, HostEvent{
		Name: name, Stage: b.scope.stage, Modality: b.scope.modality,
		Seconds: d, Start: start, End: end,
	})
}

// Transfer places one host↔device copy on the current scope's stream.
func (b *Builder) Transfer(name string, bytes int64) {
	d := b.dev.TransferSeconds(bytes)
	s := b.streamFor()
	start := b.streams[s]
	if b.hostClock > start {
		start = b.hostClock
	}
	end := start + d
	b.streams[s] = end
	b.hostClock = end // the runtime drives the copy
	b.xferTotal += d
	b.transfers = append(b.transfers, TransferEvent{
		Name: name, Bytes: bytes, Modality: b.scope.modality,
		Start: start, End: end,
	})
}

// Barrier joins every stream and the host clock — the modality
// synchronization point before the fusion stage.
func (b *Builder) Barrier(name string) {
	t := b.hostClock
	for _, s := range b.streams {
		if s > t {
			t = s
		}
	}
	for i := range b.streams {
		b.streams[i] = t
	}
	b.hostClock = t
	if !b.concurrent {
		b.gpuClock = t
	}
	b.hosts = append(b.hosts, HostEvent{
		Name: name, Stage: b.scope.stage, Modality: b.scope.modality,
		Seconds: 0, Start: t, End: t,
	})
}

// StreamEnd returns the current clock of the stream serving a modality
// (used to measure per-modality encoder latency).
func (b *Builder) StreamEnd(modality string) float64 {
	if s, ok := b.modStream[modality]; ok {
		return b.streams[s]
	}
	return b.streams[0]
}

// Finish seals the timeline.
func (b *Builder) Finish() *Trace {
	wall := b.hostClock
	for _, s := range b.streams {
		if s > wall {
			wall = s
		}
	}
	return &Trace{
		Device:          b.dev,
		Kernels:         b.kernels,
		Hosts:           b.hosts,
		Transfers:       b.transfers,
		Wall:            wall,
		StreamBusy:      b.busy,
		HostBusy:        b.hostBusy,
		TransferSeconds: b.xferTotal,
	}
}

// Bytes estimates the trace's resident footprint: its event arrays and
// the names their events carry — what a kept trace costs its owner's
// memory budget.
func (t *Trace) Bytes() int64 {
	b := int64(cap(t.Kernels))*int64(unsafe.Sizeof(KernelEvent{})) +
		int64(cap(t.Hosts))*int64(unsafe.Sizeof(HostEvent{})) +
		int64(cap(t.Transfers))*int64(unsafe.Sizeof(TransferEvent{}))
	for _, k := range t.Kernels {
		b += int64(len(k.Spec.Name))
	}
	for _, h := range t.Hosts {
		b += int64(len(h.Name))
	}
	return b
}

// String summarizes the trace.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%s: %d kernels, %d host ops, %d transfers, wall %.3fms}",
		t.Device.Name, len(t.Kernels), len(t.Hosts), len(t.Transfers), t.Wall*1e3)
}
