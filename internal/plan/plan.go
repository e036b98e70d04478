// Package plan compiles a multi-modal network plus a batch shape into
// an explicit stage plan: a small DAG of stage nodes (one per encoder
// modality, the fusion join, the task head) each carrying the kernel
// specs it launches, its host-side work, its parameter and activation
// byte footprints, and the inter-stage edges (the cross-modal gathers
// and the fused handoff that Forward models as host ops).
//
// The plan is a capture of the exact recorder call sequence the network
// emits — compiling and replaying a plan into a trace.Builder produces
// a byte-identical trace to driving the builder live — so every
// report's modeled side, analytic or eager, is Compile + Replay, and
// fleet placement (internal/place) prices the same nodes on
// heterogeneous devices without ever re-walking the network.
package plan

import (
	"fmt"

	"mmbench/internal/data"
	"mmbench/internal/engine"
	"mmbench/internal/kernels"
	"mmbench/internal/mmnet"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
)

// Recorder is the event sink a compiled plan replays into.
// trace.Builder satisfies it structurally.
type Recorder interface {
	Kernel(spec kernels.Spec)
	Host(name string, flops, bytes int64, nOps int)
	SetScope(stage, modality string)
	Transfer(name string, bytes int64)
	Barrier(name string)
}

// eventKind selects which fields of an event are meaningful.
type eventKind uint8

const (
	evScope eventKind = iota
	evKernel
	evHost
	evTransfer
	evBarrier
)

// event is one captured recorder call, in program order.
type event struct {
	kind            eventKind
	spec            kernels.Spec
	name            string
	stage, modality string
	flops, bytes    int64
	nOps            int
}

// capture buffers every recorder call the prologue, the network forward
// and the epilogue emit, in the exact order a live trace.Builder would
// have received them. It implements ops.Recorder, mmnet.Scoper and
// mmnet.Barrierer, and is written by one goroutine: a forward with a
// recorder walks its encoder branches one after another, so a compile
// has one schedule.
type capture struct {
	events []event
}

func (c *capture) Kernel(spec kernels.Spec) {
	c.events = append(c.events, event{kind: evKernel, spec: spec})
}

func (c *capture) Host(name string, flops, bytes int64, nOps int) {
	c.events = append(c.events, event{kind: evHost, name: name, flops: flops, bytes: bytes, nOps: nOps})
}

func (c *capture) SetScope(stage, modality string) {
	c.events = append(c.events, event{kind: evScope, stage: stage, modality: modality})
}

func (c *capture) Transfer(name string, bytes int64) {
	c.events = append(c.events, event{kind: evTransfer, name: name, bytes: bytes})
}

func (c *capture) Barrier(name string) {
	c.events = append(c.events, event{kind: evBarrier, name: name})
}

// HostOp is one aggregated host-side segment of a node.
type HostOp struct {
	Name  string `json:"name"`
	FLOPs int64  `json:"flops"`
	Bytes int64  `json:"bytes"`
	NOps  int    `json:"n_ops"`
}

// TransferOp is one PCIe/interconnect copy charged to a node (the input
// pipeline's h2d copies, the head's d2h output copy).
type TransferOp struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// Node is one stage of the plan DAG: an encoder branch, the fusion
// join, or the task head.
type Node struct {
	// ID indexes Plan.Nodes; Edge endpoints refer to it.
	ID int `json:"id"`
	// Stage is mmnet.StageEncoder/StageFusion/StageHead; Modality names
	// the branch for encoder nodes. Key is mmnet.NodeKey(Stage, Modality)
	// — the identifier placement policies address.
	Stage    string `json:"stage"`
	Modality string `json:"modality,omitempty"`
	Key      string `json:"key"`
	// Specs are the device-independent kernel launches of this node, in
	// program order, with precision bits already stamped by the compile
	// policy.
	Specs []kernels.Spec `json:"-"`
	// Hosts are the node's host-side segments (data loading and
	// preprocessing for encoder nodes, gathers for fusion, handoff and
	// postprocess for the head).
	Hosts []HostOp `json:"-"`
	// Transfers are the node's own h2d/d2h copies.
	Transfers []TransferOp `json:"-"`
	// ParamBytes is the stage module's parameter footprint.
	ParamBytes int64 `json:"param_bytes"`
	// OutBytes is the node's activation output: what flows over its
	// outgoing edge (or back to the host, for the head).
	OutBytes int64 `json:"out_bytes"`
	// FLOPs and KernelBytes summarize Specs for reports.
	FLOPs       int64 `json:"flops"`
	KernelBytes int64 `json:"kernel_bytes"`
	// Kernels is len(Specs), exported for JSON summaries.
	Kernels int `json:"kernels"`
}

// Edge is one inter-stage activation transfer: every encoder node feeds
// fusion (the cross-modal gather), fusion feeds the head (the fused
// handoff). Bytes is the f32 activation size; placement scales it by
// the source node's storage precision.
type Edge struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// Options configure plan compilation. The zero value compiles the
// default configuration (data.DefaultBatchSize samples, all-f32,
// process-default engine).
type Options struct {
	// BatchSize defaults to data.DefaultBatchSize.
	BatchSize int
	// Precision stamps per-stage storage bits onto the captured specs.
	Precision precision.Policy
	// Engine is consulted for abort checkpoints during the abstract
	// forward (cancellable compiles); nil uses the process default.
	Engine *engine.Engine
}

// Plan is a compiled stage plan: the node DAG plus the full captured
// event sequence (for byte-identical trace replay).
type Plan struct {
	Network    string
	Modalities []string
	BatchSize  int
	Precision  precision.Policy
	Nodes      []Node
	Edges      []Edge
	// Pre is the shared per-batch host work before any stage scope
	// (framework batch setup).
	Pre []HostOp
	// Output is the abstract forward's output variable (nil shapes);
	// OutputBytes its activation size.
	Output      *ops.Var
	OutputBytes int64

	events []event
}

// Prologue emits the input-pipeline events of a run into rec: the
// shared batch setup, then per modality the load+preprocess host
// segment and the h2d transfer. Compile emits exactly this before the
// abstract forward; it stays exported for the callers that drive a
// recorder live, the benchmark's layer walk and this package's tests.
func Prologue(rec Recorder, n *mmnet.Network, batchSize int) error {
	// Per-batch framework setup (data loader iteration, batch assembly)
	// is shared across modalities — uni- and multi-modal variants pay it
	// once.
	rec.Host("batch_setup", 0, 0, 8)

	// End-to-end input pipeline: every modality's raw capture is loaded,
	// decoded/preprocessed on the CPU and copied to the device. The paper
	// insists on including this (its end-to-end design principle).
	for _, m := range n.Modalities {
		spec, ok := n.Gen.SpecByName(m)
		if !ok {
			return fmt.Errorf("plan: modality %q missing from generator", m)
		}
		rec.SetScope(mmnet.StageEncoder, m)
		raw := spec.RawBytes * int64(batchSize)
		// Decode + normalize ≈ a few passes over the raw bytes.
		rec.Host("load+preprocess:"+m, raw, 3*raw, 3)
		var devBytes int64
		if spec.Kind == data.Dense {
			devBytes = int64(spec.ElemsPerSample()) * 4 * int64(batchSize)
		} else {
			devBytes = int64(spec.Shape[0]) * 4 * int64(batchSize)
		}
		rec.Transfer("h2d:"+m, devBytes)
	}
	return nil
}

// Epilogue emits the result return events: the d2h output copy and the
// host-side postprocess, then resets the scope.
func Epilogue(rec Recorder, outBytes int64) {
	rec.SetScope(mmnet.StageHead, "")
	rec.Transfer("d2h:output", outBytes)
	rec.Host("postprocess", 0, outBytes, 1)
	rec.SetScope("", "")
}

// Compile walks the network once over an abstract batch and partitions
// the captured recorder events into the stage-node DAG. The capture is
// the complete run event sequence (prologue + forward + epilogue), so
// Replay into a trace.Builder reproduces the analytic trace exactly.
func Compile(n *mmnet.Network, opts Options) (*Plan, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = data.DefaultBatchSize
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	cap := &capture{}
	if err := Prologue(cap, n, opts.BatchSize); err != nil {
		return nil, err
	}
	batch := n.Gen.AbstractBatch(opts.BatchSize)
	c := &ops.Ctx{Rec: cap, Eng: opts.Engine, Precision: opts.Precision}
	out := n.Forward(c, batch)
	Epilogue(cap, out.Value.Bytes())

	p := &Plan{
		Network:     n.Name,
		Modalities:  append([]string(nil), n.Modalities...),
		BatchSize:   opts.BatchSize,
		Precision:   opts.Precision,
		Output:      out,
		OutputBytes: out.Value.Bytes(),
		events:      cap.events,
	}
	p.build(n)
	return p, nil
}

// build partitions the captured event stream into nodes and edges.
func (p *Plan) build(n *mmnet.Network) {
	stageNodes := n.StageNodes()
	p.Nodes = make([]Node, len(stageNodes))
	index := make(map[string]int, len(stageNodes))
	for i, sn := range stageNodes {
		p.Nodes[i] = Node{ID: i, Stage: sn.Stage, Modality: sn.Modality, Key: sn.Key}
		index[sn.Key] = i
	}

	cur := -1 // current node index; -1 = outside any stage scope
	for _, ev := range p.events {
		switch ev.kind {
		case evScope:
			if ev.stage == "" {
				cur = -1
				continue
			}
			if id, ok := index[mmnet.NodeKey(ev.stage, ev.modality)]; ok {
				cur = id
			} else {
				cur = -1
			}
		case evKernel:
			if cur >= 0 {
				nd := &p.Nodes[cur]
				nd.Specs = append(nd.Specs, ev.spec)
				nd.FLOPs += ev.spec.FLOPs
				nd.KernelBytes += ev.spec.BytesRead + ev.spec.BytesWritten
			}
		case evHost:
			h := HostOp{Name: ev.name, FLOPs: ev.flops, Bytes: ev.bytes, NOps: ev.nOps}
			if cur < 0 {
				p.Pre = append(p.Pre, h)
				continue
			}
			p.Nodes[cur].Hosts = append(p.Nodes[cur].Hosts, h)
			// The gather and handoff host ops double as the DAG edges:
			// their byte counts are exactly the activation sizes crossing
			// the stage boundary.
			if len(ev.name) > len("gather:") && ev.name[:len("gather:")] == "gather:" {
				mod := ev.name[len("gather:"):]
				if from, ok := index[mmnet.NodeKey(mmnet.StageEncoder, mod)]; ok {
					p.Edges = append(p.Edges, Edge{From: from, To: cur, Name: ev.name, Bytes: ev.bytes})
					p.Nodes[from].OutBytes = ev.bytes
				}
			} else if ev.name == "stage_handoff" {
				if from, ok := index[mmnet.StageFusion]; ok {
					p.Edges = append(p.Edges, Edge{From: from, To: cur, Name: ev.name, Bytes: ev.bytes})
					p.Nodes[from].OutBytes = ev.bytes
				}
			}
		case evTransfer:
			if cur >= 0 {
				p.Nodes[cur].Transfers = append(p.Nodes[cur].Transfers, TransferOp{Name: ev.name, Bytes: ev.bytes})
			}
		}
	}

	for i := range p.Nodes {
		p.Nodes[i].Kernels = len(p.Nodes[i].Specs)
	}
	if id, ok := index[mmnet.StageHead]; ok {
		p.Nodes[id].OutBytes = p.OutputBytes
	}
	p.stampParamBytes(n, index)
}

// stampParamBytes records each stage module's parameter footprint on
// its node.
func (p *Plan) stampParamBytes(n *mmnet.Network, index map[string]int) {
	sum := func(vs []*ops.Var) int64 {
		var total int64
		for _, v := range vs {
			total += v.Value.Bytes()
		}
		return total
	}
	for i, m := range n.Modalities {
		if id, ok := index[mmnet.NodeKey(mmnet.StageEncoder, m)]; ok {
			p.Nodes[id].ParamBytes = sum(n.Encoders[i].Params())
		}
	}
	if id, ok := index[mmnet.StageFusion]; ok {
		p.Nodes[id].ParamBytes = sum(n.Fusion.Params())
	}
	if id, ok := index[mmnet.StageHead]; ok {
		p.Nodes[id].ParamBytes = sum(n.Head.Params())
	}
}

// Replay feeds the captured event sequence into rec in recorded order —
// into a trace.Builder this reproduces the live analytic trace
// byte-identically (same events, same clocks, same attribution).
func (p *Plan) Replay(rec Recorder) {
	for i := range p.events {
		ev := &p.events[i]
		switch ev.kind {
		case evScope:
			rec.SetScope(ev.stage, ev.modality)
		case evKernel:
			rec.Kernel(ev.spec)
		case evHost:
			rec.Host(ev.name, ev.flops, ev.bytes, ev.nOps)
		case evTransfer:
			rec.Transfer(ev.name, ev.bytes)
		case evBarrier:
			rec.Barrier(ev.name)
		}
	}
}

// NodeByKey returns the node addressed by a placement key, or nil.
func (p *Plan) NodeByKey(key string) *Node {
	for i := range p.Nodes {
		if p.Nodes[i].Key == key {
			return &p.Nodes[i]
		}
	}
	return nil
}

// EventCount returns the captured event count (tests use it to confirm
// a compile saw the full run sequence).
func (p *Plan) EventCount() int { return len(p.events) }
