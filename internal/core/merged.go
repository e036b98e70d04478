package core

import (
	"errors"
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/mmnet"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// MemberSpec describes one request of a merged cross-request batch.
type MemberSpec struct {
	// BatchSize is the request's own sample count (defaults to
	// data.DefaultBatchSize).
	BatchSize int
	// Seed drives the request's data generation (defaults to
	// data.DefaultSeed).
	Seed int64
}

// RunMerged is the one eager execution. It runs several compatible eager
// requests as ONE forward pass: the member batches are concatenated
// along the batch dimension, the network runs once over the merged
// batch, and each member gets back its own RunResult with its slice of
// the output. A standalone eager Run is the one-member case. Per-member
// outputs are bitwise identical whatever the other members are — the
// engine's shape-only deterministic chunking makes most operators
// batch-invariant for free, and the two kinds with cross-batch numerics
// (per-tensor int8 scale calibrations, BatchNorm2D batch statistics)
// execute per request segment, steered by ops.Ctx.Segments.
//
// The forward drives no recorder: each member's Trace/Memory/Latency is
// the modeled side at that member's own batch size (see model), the same
// numbers an analytic Run of that size reports. Members of equal size
// share one Trace. StageSeconds is the measured stage wall of the merged
// forward (see ops.Ctx.Walls), shared by every member: it is the real
// wall-clock cost the batch paid, which is exactly what serving-side
// percentiles should see. Cancellation is one flag for the whole forward
// — a merged batch aborts or survives as a unit.
//
// The forwards allocate their answer, not their inputs or intermediates:
// every member's generated float32 inputs (data.Generator.BatchIn), the
// merged batch they are concatenated into and every untaped operator
// result (see ops.Ctx.Arena) come from one arena on the run's engine,
// released when RunMerged returns — by which time each member's Output is
// a copy of its rows (sliceLeading) and the output errors are computed
// (the f32 reference forward reads the same batch), so nothing the caller
// holds points into it.
func RunMerged(n *mmnet.Network, opts RunOptions, members []MemberSpec) (_ []*RunResult, err error) {
	if len(members) == 0 {
		return nil, errors.New("core: RunMerged needs at least one member")
	}
	if !opts.Eager {
		return nil, errors.New("core: RunMerged requires eager execution")
	}
	cancel, end, err := begin(n, &opts)
	if err != nil {
		return nil, err
	}
	// Deferred before end, so it runs after it: on every way out —
	// success, error, cancel or panic — the arena is released after end
	// has recovered, when ParallelFor and the branch executor have joined
	// every goroutine that could still write to it.
	arena := opts.Engine.NewArena()
	defer arena.Release()
	defer end(&err)

	segs := make([]int, len(members))
	batches := make([]*data.Batch, len(members))
	total := 0
	for i, m := range members {
		bs := m.BatchSize
		if bs <= 0 {
			bs = data.DefaultBatchSize
		}
		seed := m.Seed
		if seed == 0 {
			seed = data.DefaultSeed
		}
		segs[i] = bs
		total += bs
		batches[i] = n.Gen.BatchIn(arena, tensor.NewRNG(seed), bs)
	}
	merged, err := data.ConcatBatchesIn(arena, batches)
	if err != nil {
		return nil, err
	}

	c := &ops.Ctx{
		Eng:       opts.Engine,
		Precision: opts.Precision,
		Segments:  segs,
		Arena:     arena,
		Walls:     make(map[string]float64, 3),
	}
	if opts.Profiler != nil {
		c.Prof = opts.Profiler.Root()
	}
	out := n.Forward(c, merged)

	// A non-trivial precision policy also executes the f32 reference over
	// the merged batch (segmented the same way, so each member's error is
	// measured against its own reference) — the accuracy-delta axis of a
	// mixed-precision sweep.
	var ref *ops.Var
	if !opts.Precision.AllF32() {
		ref = n.Forward(&ops.Ctx{
			Eng:      opts.Engine,
			Segments: segs,
			Arena:    arena,
		}, merged)
	}
	// Final abort checkpoint: a cancellation that fired after the last
	// stage boundary left garbage in the outputs (skipped chunks), so the
	// run must not be reported as a result.
	if cancel.Cancelled() {
		return nil, cancel.Reason()
	}

	outShape := out.Value.Shape()
	if len(outShape) == 0 || outShape[0]%total != 0 {
		return nil, fmt.Errorf("core: RunMerged output shape %v not divisible across %d samples", outShape, total)
	}
	rowsPer := outShape[0] / total // leading-dim rows per sample
	elemsPerRow := out.Value.Size() / outShape[0]

	// Per-member results: the modeled side at the member's own batch
	// size (modeled once per distinct size) plus its rows of the output.
	modeled := make(map[int]*RunResult)
	results := make([]*RunResult, len(members))
	lo := 0
	for i, bs := range segs {
		m := modeled[bs]
		if m == nil {
			if m, err = model(n, opts, bs); err != nil {
				return nil, err
			}
			modeled[bs] = m
		}
		r := *m
		r0, r1 := lo*rowsPer, (lo+bs)*rowsPer
		r.Output = sliceLeading(out, r0, r1, elemsPerRow, outShape)
		if ref != nil {
			r.OutputErrMax, r.OutputErrMean = outputError(
				out.Value.Data()[r0*elemsPerRow:r1*elemsPerRow],
				ref.Value.Data()[r0*elemsPerRow:r1*elemsPerRow])
		}
		r.StageSeconds = c.Walls
		results[i] = &r
		lo += bs
	}
	return results, nil
}

// sliceLeading copies rows [r0, r1) of a tensor's leading dimension into
// a fresh Var with the trailing dims preserved — heap memory, so the
// member's output outlives the run's arena.
func sliceLeading(v *ops.Var, r0, r1, elemsPerRow int, shape []int) *ops.Var {
	memberShape := append([]int{r1 - r0}, shape[1:]...)
	t := tensor.New(memberShape...)
	copy(t.Data(), v.Value.Data()[r0*elemsPerRow:r1*elemsPerRow])
	return autograd.NewVar(t)
}
