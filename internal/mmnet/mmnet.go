// Package mmnet assembles encoders, a fusion operator and a task head into
// the staged multi-modal network of the paper's Figure 1: per-modality
// encoder branches, a fusion stage that joins them, and a task-specific
// head. Stage and modality scope flows into the profiling recorder so every
// kernel is attributed to (stage, modality) — the paper's fine-grained
// network characterization.
package mmnet

import (
	"fmt"
	"sync"
	"time"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/fusion"
	"mmbench/internal/gemm"
	"mmbench/internal/models"
	"mmbench/internal/ops"
)

// Stage names used for scope attribution.
const (
	StageEncoder = "encoder"
	StageFusion  = "fusion"
	StageHead    = "head"
)

// Stages lists the three stages in execution order.
func Stages() []string { return []string{StageEncoder, StageFusion, StageHead} }

// StageNode is one node of a network's stage plan: an encoder branch
// (one per modality), the fusion join, or the task head. The node list
// is the execution-order walk of the stage DAG — encoder nodes are
// mutually independent and may run concurrently, fusion depends on
// every encoder, head depends on fusion. internal/plan compiles the
// same nodes into a priced Plan (kernel specs, byte footprints, edge
// sizes) and internal/place assigns them to fleet devices.
type StageNode struct {
	// Stage is StageEncoder, StageFusion or StageHead.
	Stage string
	// Modality names the encoder branch; empty for fusion and head.
	Modality string
	// Key is the node's stable identifier: "encoder:<modality>",
	// "fusion" or "head" — the keys placement policies address.
	Key string
}

// NodeKey builds the stable node identifier for a stage scope.
func NodeKey(stage, modality string) string {
	if stage == StageEncoder && modality != "" {
		return StageEncoder + ":" + modality
	}
	return stage
}

// StageNodes returns the network's stage plan in execution order: one
// encoder node per modality, then fusion, then head. Forward walks
// exactly this node list.
func (n *Network) StageNodes() []StageNode {
	nodes := make([]StageNode, 0, len(n.Modalities)+2)
	for _, m := range n.Modalities {
		nodes = append(nodes, StageNode{Stage: StageEncoder, Modality: m, Key: NodeKey(StageEncoder, m)})
	}
	nodes = append(nodes,
		StageNode{Stage: StageFusion, Key: StageFusion},
		StageNode{Stage: StageHead, Key: StageHead})
	return nodes
}

// Scoper is implemented by recorders that attribute kernels to a stage and
// modality (trace.Builder implements it).
type Scoper interface {
	SetScope(stage, modality string)
}

// setScope moves the context into a (stage, modality) scope: the
// recorder starts attributing kernels there, and the context activates
// the precision policy's assignment for the stage (mmnet stage names
// match the precision.Policy stage keys). The empty scope between and
// after stages restores float32, so losses and metrics never run at
// reduced precision.
func setScope(c *ops.Ctx, stage, modality string) {
	if s, ok := c.Rec.(Scoper); ok {
		s.SetScope(stage, modality)
	}
	c.EnterStage(stage, modality)
}

// Network is one end-to-end multi-modal DNN.
type Network struct {
	// Name identifies the variant, e.g. "avmnist/concat" or
	// "avmnist/uni:image".
	Name string
	// Modalities names each encoder branch, aligned with Encoders.
	Modalities []string
	Encoders   []models.Encoder
	Fusion     fusion.Fusion
	Head       models.Head
	Task       data.Task
	// Gen generates this network's data (shapes and planted structure).
	Gen *data.Generator

	// frozen is set by Freeze; nil on a private network.
	frozen *frozen
}

// Validate reports whether the network is structurally consistent.
func (n *Network) Validate() error {
	switch {
	case n.Name == "":
		return fmt.Errorf("mmnet: network has no name")
	case len(n.Encoders) == 0:
		return fmt.Errorf("mmnet %s: no encoders", n.Name)
	case len(n.Encoders) != len(n.Modalities):
		return fmt.Errorf("mmnet %s: %d encoders for %d modalities", n.Name, len(n.Encoders), len(n.Modalities))
	case n.Fusion == nil || n.Head == nil:
		return fmt.Errorf("mmnet %s: missing fusion or head", n.Name)
	case n.Gen == nil:
		return fmt.Errorf("mmnet %s: missing data generator", n.Name)
	}
	for _, m := range n.Modalities {
		if _, ok := n.Gen.SpecByName(m); !ok {
			return fmt.Errorf("mmnet %s: modality %q not in generator", n.Name, m)
		}
	}
	return nil
}

// inputFor builds the encoder Input for one modality from a batch.
func (n *Network) inputFor(b *data.Batch, modality string) models.Input {
	spec, ok := n.Gen.SpecByName(modality)
	if !ok {
		panic(fmt.Sprintf("mmnet %s: unknown modality %q", n.Name, modality))
	}
	if spec.Kind == data.Dense {
		t, ok := b.Dense[modality]
		if !ok {
			panic(fmt.Sprintf("mmnet %s: batch missing dense modality %q", n.Name, modality))
		}
		return models.Input{Dense: autograd.NewVar(t)}
	}
	if b.Abstract {
		return models.Input{Abstract: true, B: b.Size, T: spec.Shape[0]}
	}
	toks, ok := b.Tokens[modality]
	if !ok {
		panic(fmt.Sprintf("mmnet %s: batch missing token modality %q", n.Name, modality))
	}
	return models.Input{Tokens: toks}
}

// Barrierer is implemented by recorders that model the modality
// synchronization join before the fusion stage.
type Barrierer interface {
	Barrier(name string)
}

// Forward runs the three-stage network over a batch and returns the task
// output (logits, regression values or mask logits).
//
// The per-modality encoder branches are independent until the fusion
// join. Where there is math to overlap and a spare worker to overlap it
// on — more than one branch, no recorder, an engine with more than one
// worker, Ctx.SequentialBranches unset and, when taped, no parameter
// shared between branches — they run concurrently: one goroutine per
// branch on the context's own engine, each with an isolated tape,
// dropout stream and profiler shard, joined in fixed modality order
// (see branch.go). Everywhere else they run one after another. Outputs
// and gradients are bitwise identical under either schedule.
//
// When a recorder is attached, Forward also models the synchronization
// behaviour the paper characterizes: the fusion stage waits on every
// modality stream (modality synchronization), and each modality's learned
// representation passes through a host-side gather (data synchronization —
// the intermediate-data operations that inflate CPU+Runtime time for
// multi-modal networks).
//
// When c.Walls is set, Forward times its own stage walk into it: one
// clock read at the start and one after each stage, on this goroutine.
func (n *Network) Forward(c *ops.Ctx, b *data.Batch) *ops.Var {
	// Reset the recorder scope even if an encoder (or fusion/head op)
	// panics: a recovered benchmark run must not attribute later kernels
	// to this network's last (stage, modality) scope.
	defer setScope(c, "", "")
	nodes := n.StageNodes()
	t := time.Now()
	// The encoder prefix of the node list is mutually independent, so it
	// runs through the branch executor.
	feats := n.encodeBranches(c, b)
	lap(c, StageEncoder, &t)
	var fused, out *ops.Var
	for _, node := range nodes[len(n.Encoders):] {
		switch node.Stage {
		case StageFusion:
			setScope(c, StageFusion, "")
			if c.Rec != nil {
				if bar, ok := c.Rec.(Barrierer); ok {
					bar.Barrier("modality_sync")
				}
				for i, f := range feats {
					// Cross-modal gathers: aligning, padding and copying each
					// learned representation costs runtime work that grows with
					// the number of modalities being joined — the paper's
					// "lengthy intermediate data operations" that can even
					// outweigh GPU computation. In the stage plan these are the
					// encoder→fusion edges.
					c.Rec.Host("gather:"+n.Modalities[i], 0, f.Value.Bytes(), 2+8*len(feats))
				}
			}
			fused = n.Fusion.Fuse(c, feats)
			lap(c, StageFusion, &t)
		case StageHead:
			setScope(c, StageHead, "")
			if c.Rec != nil {
				// Fused representation handoff to the head — the fusion→head
				// edge of the stage plan (one host-side op).
				c.Rec.Host("stage_handoff", 0, fused.Value.Bytes(), 1)
			}
			out = n.Head.Forward(c, fused)
			lap(c, StageHead, &t)
		}
	}
	return out
}

// lap writes the wall since *t as stage's entry of c.Walls (when set) and
// restarts *t, so consecutive laps tile the forward without a gap.
func lap(c *ops.Ctx, stage string, t *time.Time) {
	if c.Walls == nil {
		return
	}
	now := time.Now()
	c.Walls[stage] = now.Sub(*t).Seconds()
	*t = now
}

// Loss computes the task loss for a forward output.
func (n *Network) Loss(c *ops.Ctx, out *ops.Var, b *data.Batch) *ops.Var {
	switch n.Task {
	case data.Classify:
		return c.CrossEntropy(out, b.Labels)
	case data.MultiLabel:
		return c.BCEWithLogits(out, b.Targets)
	case data.Regress:
		return c.MSE(out, b.Targets)
	case data.Segment:
		return c.DiceLoss(out, b.Targets)
	}
	panic(fmt.Sprintf("mmnet %s: unknown task %v", n.Name, n.Task))
}

// Params returns every trainable parameter.
func (n *Network) Params() []*ops.Var {
	var ps []*ops.Var
	for _, e := range n.Encoders {
		ps = append(ps, e.Params()...)
	}
	ps = append(ps, n.Fusion.Params()...)
	return append(ps, n.Head.Params()...)
}

// ParamBytes returns the model's parameter footprint in bytes.
func (n *Network) ParamBytes() int64 {
	var total int64
	for _, p := range n.Params() {
		total += p.Value.Bytes()
	}
	return total
}

// Freeze marks the network as shared and read-only by giving every
// parameter an empty packed-panel holder (autograd.Var.Frozen): from
// then on a taped forward over it panics, untaped Linear products pack
// each weight once per precision instead of once per call, and Memo
// keeps what it computes. Every panel set and memoised value the network
// keeps is reported to keep as it appears; every Memo lookup is reported
// to lookup. It must run before the network is shared — its one caller
// is workloads.Store.Get, on the network it is about to publish.
func (n *Network) Freeze(keep func(bytes int64), lookup func(hit bool)) {
	for _, p := range n.Params() {
		p.Frozen = gemm.NewPackedB(keep)
	}
	n.frozen = &frozen{keep: keep, lookup: lookup, memo: make(map[any]memoEntry)}
}

// frozen is what a frozen network keeps beside its weights' panels: the
// values Memo computed, and where to report them.
type frozen struct {
	keep   func(bytes int64)
	lookup func(hit bool)

	mu   sync.Mutex
	memo map[any]memoEntry
}

type memoEntry struct {
	value any
	bytes int64
}

// Memo returns the value a frozen network keeps under key, computing it
// on the first lookup and keeping it for as long as the network lives.
// compute must be a pure function of the network and key, returning the
// value's resident bytes; the value is shared by every later caller,
// which may only read it. A failed (or panicking) compute keeps nothing.
// Racing first lookups may each compute; the first kept is returned to
// all of them. A private network keeps nothing: Memo computes on every
// call.
func (n *Network) Memo(key any, compute func() (value any, bytes int64, err error)) (any, error) {
	f := n.frozen
	if f == nil {
		v, _, err := compute()
		return v, err
	}
	f.mu.Lock()
	e, hit := f.memo[key]
	f.mu.Unlock()
	f.lookup(hit)
	if hit {
		return e.value, nil
	}
	v, bytes, err := compute()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if e, raced := f.memo[key]; raced {
		f.mu.Unlock()
		return e.value, nil
	}
	f.memo[key] = memoEntry{v, bytes}
	f.mu.Unlock()
	f.keep(bytes)
	return v, nil
}

// KeptBytes returns what a frozen network keeps beyond its parameters:
// the GEMM panels its weights packed and the values Memo holds (both 0 on
// a private network).
func (n *Network) KeptBytes() (panels, memo int64) {
	for _, p := range n.Params() {
		panels += p.Frozen.Bytes()
	}
	if f := n.frozen; f != nil {
		f.mu.Lock()
		for _, e := range f.memo {
			memo += e.bytes
		}
		f.mu.Unlock()
	}
	return panels, memo
}

// NumModalities returns the encoder branch count.
func (n *Network) NumModalities() int { return len(n.Encoders) }
