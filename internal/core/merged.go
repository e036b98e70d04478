package core

import (
	"errors"
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/engine"
	"mmbench/internal/memprof"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/plan"
	"mmbench/internal/tensor"
	"mmbench/internal/trace"
)

// MemberSpec describes one request of a merged cross-request batch.
type MemberSpec struct {
	// BatchSize is the request's own sample count (defaults to 32).
	BatchSize int
	// Seed drives the request's data generation (defaults to 1).
	Seed int64
}

// RunMerged executes several compatible eager requests as ONE forward
// pass: the member batches are concatenated along the batch dimension,
// the network runs once over the merged batch, and each member gets back
// its own RunResult with its slice of the output. Per-member outputs are
// bitwise identical to running each member alone — the engine's
// shape-only deterministic chunking makes most operators batch-invariant
// for free, and the two kinds with cross-batch numerics (per-tensor int8
// scale calibrations, BatchNorm2D batch statistics) execute per request
// segment, steered by ops.Ctx.Segments.
//
// Each member's Trace/Memory/Latency come from compiling the stage plan
// at that member's own batch size — byte-identical to the member's
// standalone run, since replayed plans match live-driven traces.
// StageSeconds (when profiling) is the measured wall of the merged
// forward, shared by every member: it is the real wall-clock cost the
// batch paid, which is exactly what serving-side percentiles should see.
func RunMerged(n *mmnet.Network, opts RunOptions, members []MemberSpec) (res []*RunResult, err error) {
	if len(members) == 0 {
		return nil, errors.New("core: RunMerged needs at least one member")
	}
	if !opts.Eager {
		return nil, errors.New("core: RunMerged requires eager execution")
	}
	opts.defaults()
	if err := n.Validate(); err != nil {
		return nil, err
	}

	// Cancellation wiring mirrors Run: one flag for the whole merged
	// forward — a merged batch aborts or survives as a unit.
	var cancelFlag *engine.Cancel
	if ctx := opts.Ctx; ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cancelFlag = engine.NewCancel()
		eng := opts.Engine
		if eng == nil {
			eng = engine.Default()
		}
		opts.Engine = eng.WithCancel(cancelFlag)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				cancelFlag.Signal(ctx.Err())
			case <-stop:
			}
		}()
		defer func() {
			if r := recover(); r != nil {
				reason, ok := engine.AbortReason(r)
				if !ok {
					panic(r)
				}
				res, err = nil, reason
			}
		}()
	}

	segs := make([]int, len(members))
	batches := make([]*data.Batch, len(members))
	total := 0
	for i, m := range members {
		bs := m.BatchSize
		if bs <= 0 {
			bs = 32
		}
		seed := m.Seed
		if seed == 0 {
			seed = 1
		}
		segs[i] = bs
		total += bs
		batches[i] = n.Gen.Batch(tensor.NewRNG(seed), bs)
	}
	merged, err := data.ConcatBatches(batches)
	if err != nil {
		return nil, err
	}

	c := &ops.Ctx{
		Eng:                opts.Engine,
		SequentialBranches: opts.SequentialBranches,
		Precision:          opts.Precision,
		Segments:           segs,
	}
	profiled := false
	if opts.Profiler != nil {
		c.Prof = opts.Profiler.Root()
		profiled = true
	}
	out := n.Forward(c, merged)

	// Like Run, a non-trivial precision policy also executes the f32
	// reference over the merged batch (segmented the same way, so each
	// member's error is measured against its own standalone reference).
	var ref *ops.Var
	if !opts.Precision.AllF32() {
		ref = n.Forward(&ops.Ctx{
			Eng:                opts.Engine,
			SequentialBranches: opts.SequentialBranches,
			Segments:           segs,
		}, merged)
	}
	if cancelFlag.Cancelled() {
		return nil, cancelFlag.Reason()
	}

	var stageSec map[string]float64
	if profiled {
		stageSec = opts.Profiler.StageWall()
		obs.ObserveStageLatencies(stageSec)
	}

	outShape := out.Value.Shape()
	if len(outShape) == 0 || outShape[0]%total != 0 {
		return nil, fmt.Errorf("core: RunMerged output shape %v not divisible across %d samples", outShape, total)
	}
	rowsPer := outShape[0] / total // leading-dim rows per sample
	elemsPerRow := out.Value.Size() / outShape[0]

	// Per-member results: the trace/memory/latency model runs at the
	// member's own batch size via the stage-plan compiler (plans for
	// repeated sizes are compiled once and replayed per member).
	plans := make(map[int]*plan.Plan)
	results := make([]*RunResult, len(members))
	lo := 0
	for i := range members {
		bs := segs[i]
		p := plans[bs]
		if p == nil {
			p, err = plan.Compile(n, plan.Options{
				BatchSize:          bs,
				Precision:          opts.Precision,
				Engine:             opts.Engine,
				SequentialBranches: opts.SequentialBranches,
			})
			if err != nil {
				return nil, err
			}
			plans[bs] = p
		}
		builder := trace.NewBuilder(opts.Device, n.Modalities)
		p.Replay(builder)
		tr := builder.Finish()
		mem := memprof.Measure(n, tr, bs)
		latency := tr.Wall * opts.Device.CapacityPenalty(mem.AllocatorDemand())

		r0, r1 := lo*rowsPer, (lo+bs)*rowsPer
		memberOut := sliceLeading(out, r0, r1, elemsPerRow, outShape)
		var errMax, errMean float64
		if ref != nil {
			errMax, errMean = outputErrorSlices(
				out.Value.Data()[r0*elemsPerRow:r1*elemsPerRow],
				ref.Value.Data()[r0*elemsPerRow:r1*elemsPerRow])
		}
		results[i] = &RunResult{
			Trace: tr, Memory: mem, Latency: latency, Output: memberOut,
			OutputErrMax: errMax, OutputErrMean: errMean, StageSeconds: stageSec,
		}
		lo += bs
	}
	return results, nil
}

// sliceLeading copies rows [r0, r1) of a tensor's leading dimension into
// a fresh Var with the trailing dims preserved.
func sliceLeading(v *ops.Var, r0, r1, elemsPerRow int, shape []int) *ops.Var {
	memberShape := append([]int{r1 - r0}, shape[1:]...)
	t := tensor.New(memberShape...)
	copy(t.Data(), v.Value.Data()[r0*elemsPerRow:r1*elemsPerRow])
	return autograd.NewVar(t)
}

// outputErrorSlices is outputError over raw slices (a member's span of
// the merged output and reference).
func outputErrorSlices(gd, rd []float32) (errMax, errMean float64) {
	if len(gd) != len(rd) || len(gd) == 0 {
		return 0, 0
	}
	var sum float64
	for i := range gd {
		e := absf(float64(gd[i]) - float64(rd[i]))
		if e > errMax {
			errMax = e
		}
		sum += e
	}
	return errMax, sum / float64(len(gd))
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
