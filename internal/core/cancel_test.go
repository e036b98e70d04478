package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mmbench/internal/engine"
	"mmbench/internal/faultinject"
	"mmbench/internal/mmnet"
	"mmbench/internal/workloads"
)

// TestRunCtxCancelledBeforeStart: a context cancelled before the run
// begins aborts at the first stage-boundary checkpoint with ctx.Err().
func TestRunCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildAndRun("avmnist", "concat", false, RunOptions{
		Eager: true, BatchSize: 4, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

func TestRunExpiredDeadlineAborts(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := BuildAndRun("avmnist", "concat", false, RunOptions{
		Eager: true, BatchSize: 4, Ctx: ctx,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

// TestRunMidRunCancellationStopsObserverSpans cancels from inside the
// engine's task observer — deterministically mid-forward — and asserts
// the run aborts with the context error while the observed span stream
// cuts off instead of running the workload to completion.
func TestRunMidRunCancellationStopsObserverSpans(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Slow every 4th chunk so the chunks in flight when cancel() fires
	// cover the watcher goroutine's wake-up latency: the flag is
	// guaranteed to be signalled while the forward still has work left.
	if err := faultinject.Configure("engine.chunk=delay:1ms/every=4"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Configure("")

	var spans atomic.Int64
	engine.SetTaskObserver(func(id int64, w int, s, e time.Time) {
		if spans.Add(1) == 3 {
			cancel()
		}
	})
	defer engine.SetTaskObserver(nil)

	e := engine.New(4)
	defer e.Close()
	_, err := BuildAndRun("avmnist", "concat", false, RunOptions{
		Eager: true, BatchSize: 16, Engine: e, Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// A full eager forward at 4 workers observes far more worker chunks
	// than this; the cutoff proves the engine stopped dispatching.
	after := spans.Load()
	time.Sleep(20 * time.Millisecond)
	if late := spans.Load(); late > after+4 {
		t.Fatalf("observer saw %d spans after the abort returned (was %d): engine kept dispatching", late, after)
	}
}

// TestRunUncancelledContextBitwiseIdentical: carrying a live (never
// cancelled) cancellation flag must not perturb results — reports and
// eager outputs are byte-identical to a context-free run, at several
// worker counts.
func TestRunUncancelledContextBitwiseIdentical(t *testing.T) {
	ref, err := BuildAndRun("avmnist", "concat", false, RunOptions{
		Eager: true, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	refOut := append([]float32(nil), ref.Output.Value.Data()...)
	refTrace, err := json.Marshal(ref.Trace)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		ctx, cancel := context.WithCancel(context.Background())
		e := engine.New(workers)
		res, err := BuildAndRun("avmnist", "concat", false, RunOptions{
			Eager: true, BatchSize: 4, Engine: e, Ctx: ctx,
		})
		cancel()
		e.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := res.Output.Value.Data()
		if len(out) != len(refOut) {
			t.Fatalf("workers=%d: output length %d vs %d", workers, len(out), len(refOut))
		}
		for i := range out {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: output[%d] = %x, want %x (bitwise)", workers, i, out[i], refOut[i])
			}
		}
		tr, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if string(tr) != string(refTrace) {
			t.Fatalf("workers=%d: trace diverged from context-free run", workers)
		}
	}
}

// packedBytes sums the GEMM panels a network's parameters keep — the
// holders' own count, independent of what a store was told.
func packedBytes(n *mmnet.Network) int64 {
	var total int64
	for _, p := range n.Params() {
		total += p.Frozen.Bytes()
	}
	return total
}

// storeNet resolves a fresh frozen network — one whose weights have kept
// no panels yet — and the private twin its outputs must match.
func storeNet(t *testing.T, workload, variant string) (frozen, private *mmnet.Network) {
	t.Helper()
	frozen, err := workloads.NewStore(workloads.StoreBudget).Get(workload, variant, false)
	if err != nil {
		t.Fatal(err)
	}
	private, err = workloads.Build(workload, variant, false, workloads.WeightSeed)
	if err != nil {
		t.Fatal(err)
	}
	return frozen, private
}

func wantPrivateBits(t *testing.T, what string, frozen, private *mmnet.Network, opts RunOptions) {
	t.Helper()
	got, err := Run(frozen, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := Run(private, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Output.Value.Data(), want.Output.Value.Data()
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("%s: output[%d] = %g, a private network gives %g", what, i, g[i], w[i])
		}
	}
}

// TestCancelledFirstUseLeavesNoPanels cancels the first-ever eager run
// of a store network mid-forward, with the same harness as above. Until
// the next stage boundary that forward keeps calling Linear on an engine
// whose chunks are now no-ops, so every weight it reaches "packs"
// nothing into its buffer: a panel published from there would corrupt
// every later request. (avmnist's encoders are conv stacks, whose work
// units each hold pooled panel scratch when the flag goes up.) The
// cancelled run must leave nothing behind it — no buffer outstanding, and
// the same network, run again uncancelled, gives a private network's bits.
func TestCancelledFirstUseLeavesNoPanels(t *testing.T) {
	for _, m := range []struct{ workload, variant string }{{"avmnist", "concat"}, {"mosei", "transformer"}} {
		frozen, private := storeNet(t, m.workload, m.variant)
		ctx, cancel := context.WithCancel(context.Background())
		if err := faultinject.Configure("engine.chunk=delay:1ms/every=4"); err != nil {
			t.Fatal(err)
		}
		var spans atomic.Int64
		engine.SetTaskObserver(func(id int64, w int, s, e time.Time) {
			if spans.Add(1) == 3 {
				cancel()
			}
		})
		e := engine.New(4)
		_, err := Run(frozen, RunOptions{Eager: true, BatchSize: 16, Engine: e, Ctx: ctx})
		engine.SetTaskObserver(nil)
		faultinject.Configure("")
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", frozen.Name, err)
		}
		if out := e.Stats().PoolOutstanding; out != 0 {
			t.Fatalf("%s: the cancelled run never returned %d pooled buffers", frozen.Name, out)
		}
		wantPrivateBits(t, frozen.Name+" after a cancelled first use", frozen, private, RunOptions{Eager: true, BatchSize: 16, Engine: e})
		if packedBytes(frozen) == 0 {
			t.Errorf("%s: the uncancelled run kept no panels", frozen.Name)
		}
		e.Close()
	}
}

// TestPanickedFirstUseLeavesNoPanels injects a kernel panic into the
// first-ever eager run of a store network at chunk positions spread over
// the whole forward (one worker and sequential branches, so the n-th
// engine chunk is the same chunk every time — pack chunks included), for a
// transformer model and a convolutional one (whose chunks are weight packs
// and whole sample × pixel-block sweeps holding gathered panels). The
// faulted run panics as it always has; whatever it had packed or was
// packing, the next run of the same network gives a private network's
// bits and the pool is whole again.
func TestPanickedFirstUseLeavesNoPanels(t *testing.T) {
	defer faultinject.Configure("")
	e := engine.New(1)
	defer e.Close()
	opts := RunOptions{Eager: true, BatchSize: 2, Engine: e, SequentialBranches: true}
	for _, m := range []struct {
		workload, variant string
		chunks            int // the sweep's reach; the forward has more
	}{{"mosei", "transformer", 90}, {"avmnist", "concat", 30}} {
		panicked := 0
		for every := 1; every <= m.chunks; every += 2 {
			frozen, private := storeNet(t, m.workload, m.variant)
			if err := faultinject.Configure(fmt.Sprintf("engine.chunk=panic/every=%d", every)); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() != nil {
						panicked++
					}
				}()
				_, _ = Run(frozen, opts)
			}()
			faultinject.Configure("")
			if out := e.Stats().PoolOutstanding; out != 0 {
				t.Fatalf("%s, panic at chunk %d: %d pooled buffers never returned", frozen.Name, every, out)
			}
			wantPrivateBits(t, fmt.Sprintf("%s after a panic at chunk %d", frozen.Name, every), frozen, private, opts)
		}
		if want := (m.chunks + 1) / 2; panicked < want {
			t.Fatalf("%s: only %d of %d injected panics fired: the forward has fewer chunks than the sweep assumes", m.workload, panicked, want)
		}
	}
}
