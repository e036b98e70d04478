package plan

import (
	"encoding/json"
	"fmt"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/device"
	"mmbench/internal/engine"
	"mmbench/internal/kernels"
	"mmbench/internal/mmnet"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

func buildNet(t *testing.T, workload, variant string) *mmnet.Network {
	t.Helper()
	n, err := workloads.Build(workload, variant, false, 42)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// traceJSON renders a finished trace to canonical bytes so tests can
// assert byte-identity, not just approximate equality.
func traceJSON(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// directTrace drives a trace.Builder the way core.Run's analytic path
// did before the plan refactor: prologue, abstract forward with the
// builder as the live recorder, epilogue.
func directTrace(t *testing.T, n *mmnet.Network, dev *device.Profile, batch int, eng *engine.Engine, sequential bool) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(dev, n.Modalities)
	if err := Prologue(b, n, batch); err != nil {
		t.Fatal(err)
	}
	ctx := &ops.Ctx{Rec: b, Eng: eng, SequentialBranches: sequential}
	out := n.Forward(ctx, n.Gen.AbstractBatch(batch))
	Epilogue(b, out.Value.Bytes())
	return b.Finish()
}

// TestReplayMatchesDirectDrive is the refactor's core invariant: a
// compiled plan replayed into a trace.Builder must be byte-identical to
// driving the builder live through the pre-refactor event sequence —
// at every worker count and under both branch schedules.
func TestReplayMatchesDirectDrive(t *testing.T) {
	const batch = 16
	dev := device.RTX2080Ti()
	for _, workload := range []string{"avmnist", "mosei"} {
		n := buildNet(t, workload, "concat")
		for _, sequential := range []bool{false, true} {
			for _, workers := range []int{1, 4, 16} {
				name := fmt.Sprintf("%s/seq=%v/w=%d", workload, sequential, workers)
				t.Run(name, func(t *testing.T) {
					eng := engine.New(workers)
					want := traceJSON(t, directTrace(t, n, dev, batch, eng, sequential))

					p, err := Compile(n, Options{BatchSize: batch, Engine: eng})
					if err != nil {
						t.Fatal(err)
					}
					b := trace.NewBuilder(dev, n.Modalities)
					p.Replay(b)
					got := traceJSON(t, b.Finish())
					if string(got) != string(want) {
						t.Errorf("replayed trace differs from direct drive\n got: %.200s\nwant: %.200s", got, want)
					}
				})
			}
		}
	}
}

// TestEagerBitwiseIdenticalAcrossSchedules: the mmnet.Forward rewrite
// (plan-shaped stage walk) must keep eager values and gradients bitwise
// identical across worker counts and branch schedules.
func TestEagerBitwiseIdenticalAcrossSchedules(t *testing.T) {
	const batch = 8
	type result struct {
		out   []float32
		grads [][]float32
	}
	run := func(workers int, sequential bool) result {
		n := buildNet(t, "avmnist", "concat")
		b := n.Gen.Batch(tensor.NewRNG(5), batch)
		tape := autograd.NewTape()
		ctx := &ops.Ctx{Tape: tape, Eng: engine.New(workers), SequentialBranches: sequential}
		out := n.Forward(ctx, b)
		loss := n.Loss(ctx, out, b)
		tape.Backward(loss)
		res := result{out: append([]float32(nil), out.Value.Data()...)}
		for _, p := range n.Params() {
			var g []float32
			if p.Grad != nil {
				g = append([]float32(nil), p.Grad.Data()...)
			}
			res.grads = append(res.grads, g)
		}
		return res
	}
	ref := run(1, true)
	for _, sequential := range []bool{false, true} {
		for _, workers := range []int{1, 4, 16} {
			got := run(workers, sequential)
			for i, v := range got.out {
				if v != ref.out[i] {
					t.Fatalf("seq=%v w=%d: output[%d] = %v, reference %v", sequential, workers, i, v, ref.out[i])
				}
			}
			if len(got.grads) != len(ref.grads) {
				t.Fatalf("seq=%v w=%d: %d grad tensors, reference %d", sequential, workers, len(got.grads), len(ref.grads))
			}
			for gi, g := range got.grads {
				for i, v := range g {
					if v != ref.grads[gi][i] {
						t.Fatalf("seq=%v w=%d: grad[%d][%d] = %v, reference %v", sequential, workers, gi, i, v, ref.grads[gi][i])
					}
				}
			}
		}
	}
}

// hostRecorder is a Recorder that keeps only Host byte counts, so the
// edge test reads exactly what Rec.Host was told.
type hostRecorder struct {
	bytes map[string]int64
}

func (h *hostRecorder) Kernel(kernels.Spec) {}
func (h *hostRecorder) Host(name string, flops, bytes int64, nOps int) {
	h.bytes[name] = bytes
}
func (h *hostRecorder) SetScope(stage, modality string)   {}
func (h *hostRecorder) Transfer(name string, bytes int64) {}
func (h *hostRecorder) Barrier(name string)               {}

// TestPlanEdgesMatchGatherBytes: the DAG edges must carry exactly the
// bytes the fusion stage's gather host ops (and the head's handoff)
// record — the plan's transfer model and the trace's host model must
// agree.
func TestPlanEdgesMatchGatherBytes(t *testing.T) {
	n := buildNet(t, "mosei", "concat")
	p, err := Compile(n, Options{BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(n.Modalities) + 1; len(p.Edges) != want {
		t.Fatalf("%d edges, want %d (one per encoder + fused handoff)", len(p.Edges), want)
	}

	var hr hostRecorder
	hr.bytes = make(map[string]int64)
	p.Replay(&hr)
	hostBytes := hr.bytes
	for _, e := range p.Edges {
		want, ok := hostBytes[e.Name]
		if !ok {
			t.Errorf("edge %q has no matching host event in the trace", e.Name)
			continue
		}
		if e.Bytes != want {
			t.Errorf("edge %q carries %d bytes, trace host op records %d", e.Name, e.Bytes, want)
		}
		if from := p.Nodes[e.From]; from.OutBytes != e.Bytes {
			t.Errorf("edge %q: source node %q OutBytes %d != edge bytes %d", e.Name, from.Key, from.OutBytes, e.Bytes)
		}
	}

	// Structural checks: nodes keyed per stage, head output stamped.
	if len(p.Nodes) != len(n.Modalities)+2 {
		t.Fatalf("%d nodes, want %d", len(p.Nodes), len(n.Modalities)+2)
	}
	for _, m := range n.Modalities {
		nd := p.NodeByKey("encoder:" + m)
		if nd == nil {
			t.Fatalf("no node for encoder:%s", m)
		}
		if nd.Kernels == 0 || nd.ParamBytes == 0 {
			t.Errorf("encoder:%s node has kernels=%d params=%d", m, nd.Kernels, nd.ParamBytes)
		}
	}
	head := p.NodeByKey(mmnet.StageHead)
	if head == nil {
		t.Fatal("no head node")
	}
	if head.OutBytes != p.OutputBytes {
		t.Errorf("head OutBytes %d != plan OutputBytes %d", head.OutBytes, p.OutputBytes)
	}
	if len(p.Pre) == 0 || p.Pre[0].Name != "batch_setup" {
		t.Errorf("plan Pre missing batch_setup: %+v", p.Pre)
	}
}
