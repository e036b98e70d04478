package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mmbench/internal/data"
	"mmbench/internal/engine"
	"mmbench/internal/faultinject"
	"mmbench/internal/mmnet"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
	"mmbench/internal/workloads"
)

// arenaFreeOutputs is RunMerged's forward without an arena: the members'
// batches drawn on the heap and concatenated the same way, one n.Forward
// whose every result is a fresh zeroed tensor, and each member's rows
// copied out.
func arenaFreeOutputs(t *testing.T, n *mmnet.Network, e *engine.Engine, pol precision.Policy, members []MemberSpec) [][]float32 {
	t.Helper()
	batches := make([]*data.Batch, len(members))
	segs := make([]int, len(members))
	for i, m := range members {
		batches[i] = n.Gen.Batch(tensor.NewRNG(m.Seed), m.BatchSize)
		segs[i] = m.BatchSize
	}
	merged, err := data.ConcatBatches(batches)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Forward(&ops.Ctx{Eng: e, Precision: pol, Segments: segs}, merged).Value.Data()
	per := len(out) / merged.Size
	outs := make([][]float32, len(members))
	lo := 0
	for i, s := range segs {
		outs[i] = append([]float32(nil), out[lo*per:(lo+s)*per]...)
		lo += s
	}
	return outs
}

func wantArenaBits(t *testing.T, what string, n *mmnet.Network, opts RunOptions, members []MemberSpec, want [][]float32) {
	t.Helper()
	results, err := RunMerged(n, opts, members)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for m, r := range results {
		got := r.Output.Value.Data()
		if len(got) != len(want[m]) {
			t.Fatalf("%s: member %d has %d outputs, want %d", what, m, len(got), len(want[m]))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[m][i]) {
				t.Fatalf("%s: member %d output[%d] = %g, the arena-less forward gives %g", what, m, i, got[i], want[m][i])
			}
		}
	}
}

func wantPoolWhole(t *testing.T, what string, e *engine.Engine) {
	t.Helper()
	if out := e.Stats().PoolOutstanding; out != 0 {
		t.Fatalf("%s: %d pooled buffers never returned", what, out)
	}
}

// TestArenaIdentity pins the run-scoped arena's contract. For the default
// variant of every workload at f32, f16 and i8, standalone and as a
// two-member merged batch, at 1 and 2 workers: RunMerged's outputs —
// every generated input, the merged batch and every intermediate carved
// from pooled slabs, most without the zero fill, the slabs NaN-poisoned
// on release — are bitwise those of an arena-less Forward over the same
// batch drawn on the heap, on the first run and on the next, which
// reuses the poisoned slabs (so a generator or operator that reads an
// element it did not write shows up as a NaN). A run cancelled mid-forward
// and a run hit by an injected kernel panic each return every slab, and
// the run after them is bitwise identical again.
func TestArenaIdentity(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	defer faultinject.Configure("")
	memberSets := [][]MemberSpec{{{BatchSize: 2, Seed: 3}}, {{BatchSize: 1, Seed: 4}, {BatchSize: 2, Seed: 5}}}
	for _, name := range workloads.Names() {
		info, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		n, err := workloads.Build(name, info.Fusions[0], false, workloads.WeightSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
			pol := precision.Policy{Encoder: p, Fusion: p, Head: p}
			for _, workers := range []int{1, 2} {
				e := engine.New(workers)
				opts := RunOptions{Eager: true, Engine: e, Precision: pol}
				for _, members := range memberSets {
					want := arenaFreeOutputs(t, n, e, pol, members)
					for use := 1; use <= 2; use++ {
						what := fmt.Sprintf("%s %s workers=%d members=%d use %d", n.Name, p, workers, len(members), use)
						wantArenaBits(t, what, n, opts, members, want)
						wantPoolWhole(t, what, e)
					}
				}
				if a := e.Stats().Arena; a.Runs != 2*int64(len(memberSets)) || a.HighWaterBytes <= 0 {
					t.Fatalf("%s %s workers=%d: arena counters %+v after %d runs", n.Name, p, workers, a, 2*len(memberSets))
				}
				e.Close()
			}
		}

		// Faults, at f32 on 2 workers: a cancel from inside the engine's
		// task observer (deterministically mid-forward), then a kernel
		// panic; after each, the pool is whole and the next run exact.
		e := engine.New(2)
		members := memberSets[1]
		opts := RunOptions{Eager: true, Engine: e}
		want := arenaFreeOutputs(t, n, e, precision.Policy{}, members)

		ctx, cancel := context.WithCancel(context.Background())
		if err := faultinject.Configure("engine.chunk=delay:1ms/every=4"); err != nil {
			t.Fatal(err)
		}
		var spans atomic.Int64
		e.SetTaskObserver(func(int64, int, time.Time, time.Time) {
			if spans.Add(1) == 3 {
				cancel()
			}
		})
		cancelled := opts
		cancelled.Ctx = ctx
		_, err = RunMerged(n, cancelled, members)
		e.SetTaskObserver(nil)
		faultinject.Configure("")
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v, want context.Canceled", n.Name, err)
		}
		wantPoolWhole(t, n.Name+" after a cancel", e)
		wantArenaBits(t, n.Name+" after a cancel", n, opts, members, want)

		if err := faultinject.Configure("engine.chunk=panic/every=5"); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the injected kernel panic never fired", n.Name)
				}
			}()
			_, _ = RunMerged(n, opts, members)
		}()
		faultinject.Configure("")
		wantPoolWhole(t, n.Name+" after a panic", e)
		wantArenaBits(t, n.Name+" after a panic", n, opts, members, want)
		e.Close()
	}
}
