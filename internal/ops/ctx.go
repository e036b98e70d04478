// Package ops implements every DNN operator MMBench's workloads need, with
// three facets per operator:
//
//   - eager forward math on concrete tensors (pure Go, float32);
//   - reverse-mode backward when a Tape is attached;
//   - emission of device-independent kernel specs to a Recorder, so the
//     device model can price the operator on any platform.
//
// Operators accept abstract (shape-only) tensors and then skip the math but
// still emit kernel specs — this is MMBench's dataset-free computation
// abstraction, used to profile paper-scale networks quickly.
package ops

import (
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/kernels"
	"mmbench/internal/obs"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// Var is re-exported for convenience so callers only import ops.
type Var = autograd.Var

// Recorder receives the kernels and host-side operations an operator
// lowers to. The trace builder in internal/trace implements it.
type Recorder interface {
	// Kernel records a GPU kernel launch.
	Kernel(spec kernels.Spec)
	// Host records CPU+runtime work (framework dispatch, data prep).
	Host(name string, flops, bytes int64, nOps int)
}

// Ctx carries the execution environment through a forward pass.
type Ctx struct {
	// Tape, when non-nil, records backward steps (training mode).
	Tape *autograd.Tape
	// Rec, when non-nil, receives kernel/host records (profiling mode).
	Rec Recorder
	// RNG, when non-nil, drives stochastic operators: dropout is active
	// exactly when the context carries one (train.Fit's step contexts), and
	// the identity otherwise.
	RNG *tensor.RNG
	// Eng executes the eager kernels' hot loops — every kernel of the
	// forward, encoder branches included. When nil, operators use
	// engine.Default() (worker count from -compute-workers, default
	// GOMAXPROCS). Results are bitwise identical at any worker count.
	Eng *engine.Engine
	// SequentialBranches asks for the reference branch schedule: encoder
	// branches run one after another on the caller's goroutine even
	// where they would otherwise overlap (no recorder, an engine with
	// more than one worker). The two schedules are bitwise identical, so
	// this is what the branch-schedule determinism tests and the
	// sequential forward measurement compare against — a scheduling
	// choice, never a numerics one.
	SequentialBranches bool
	// Precision is the per-stage storage-precision policy (the
	// -precision flag). The network assembly layer activates the right
	// stage assignment via EnterStage as execution moves between
	// encoder branches, fusion and head; the GEMM-family operators
	// (MatMul, Linear, Conv2D and fused attention) then run at that
	// precision in one arrangement: operands are quantized where they are
	// packed into GEMM panels (the float16 grid, or symmetric per-tensor
	// int8 levels at a calibrated maxabs/127 scale), products accumulate
	// wide (f32; int32 for the GEMM core's int8 kernel), i8 results are
	// dequantized at the tile store and f16 results are rounded through
	// the grid where they are stored. No operator keeps a quantized copy
	// of an operand.
	//
	// Quantization is element-wise and the scale calibration is an
	// order-independent max reduction, so every low-precision kernel keeps
	// the engine's bitwise-determinism contract: results are identical at
	// any worker count. Autograd backward always runs in float32 against
	// the full-precision inputs (master weights), the standard
	// mixed-precision training arrangement: the tape sees the quantized
	// forward outputs but computes straight-through gradients. The zero
	// policy is all-float32 and leaves every kernel bit-identical to the
	// reference path.
	Precision precision.Policy
	// prec is the precision activated for the current stage scope.
	// It is F32 outside any stage, so losses, metrics and optimizer
	// math always run in full precision.
	prec precision.Type
	// Prof, when non-nil, receives wall-clock spans for every emitted
	// kernel and stage change, for trace export (the CLI's -trace-out). It
	// is a pure observer: results are bitwise identical with or without
	// it. Each concurrently-executing branch context must carry its own
	// shard.
	Prof *obs.Shard
	// Walls, when non-nil, is an output sink: mmnet's Network.Forward
	// writes the encoder, fusion and head wall seconds into it, read on
	// the coordinating goroutine at the stage boundaries it walks, so the
	// three sum to the forward's wall. Nothing reads it to make a decision;
	// branch forks copy it and never write it.
	Walls map[string]float64
	// Segments, when it has two or more entries, marks this forward as a
	// merged cross-request batch: Segments[i] is request i's sample
	// count, concatenated in order along the leading (batch) dimension.
	// Exactly two kinds of kernel have numerics that cross the batch
	// dimension — the per-tensor int8 scale calibrations (Linear, Conv2D
	// and fused Attention at i8) and BatchNorm2D's batch statistics — and
	// they execute once per segment, so every request's output slice is
	// bitwise identical to the same request run alone. Every other
	// operator is sample- or row-local in the batch dimension: engine
	// chunking is bitwise-invariant, and the one GEMM core
	// (internal/gemm) gives a row the same bits however many rows share
	// the call (FuzzGEMM checks it), so f32 and f16 products need no
	// segmentation. One entry is a single request — a standalone eager
	// run is a merged run of one member — and so is an empty slice
	// (training, plan compiles): both run the same per-segment loops
	// over one segment, the whole batch.
	Segments []int
	// Arena, when non-nil on an untaped context, supplies every concrete
	// operator result: the run's intermediates are carved out of slabs of
	// the engine pool and all released together by the arena's owner
	// (core.RunMerged, after copying out the rows it returns). A result
	// must therefore not outlive the run. Taped contexts ignore it — a
	// tape's closures keep their activations for the backward — as do
	// abstract results, which have no storage.
	Arena *engine.Arena
}

// Infer returns a minimal inference context with no tape or recorder.
func Infer() *Ctx { return &Ctx{} }

// engine returns the compute engine for this context's kernels.
func (c *Ctx) engine() *engine.Engine {
	if c.Eng != nil {
		return c.Eng
	}
	return engine.Default()
}

// elemGrain is the flat-element grain for parallel element-wise loops.
const elemGrain = 8192

// rowGrain returns the ParallelFor grain for loops partitioned over rows
// of width d: enough rows per chunk to amortize dispatch. It depends
// only on the shape, never on the machine, keeping chunking (and thus
// results) deterministic.
func rowGrain(d int) int {
	if d <= 0 {
		return 1
	}
	g := elemGrain / d
	if g < 1 {
		return 1
	}
	return g
}

// EnterStage activates the precision policy's assignment for a stage
// scope. The network assembly layer calls it alongside recorder scope
// changes; an empty stage (the between-stages scope) restores float32.
//
// Stage boundaries are also the forward pass's abort checkpoints: when
// the context's engine handle carries a signalled cancellation flag,
// EnterStage panics with the cancellation reason (classified by
// engine.AbortReason in the runner's recover). No pooled scratch is
// held across a stage boundary, so unwinding here leaks nothing.
func (c *Ctx) EnterStage(stage, modality string) {
	c.Eng.CancelFlag().CheckAbort()
	c.prec = c.Precision.For(stage, modality)
	if c.Prof != nil {
		c.Prof.EnterStage(stage, modality)
	}
}

// ActivePrecision returns the storage precision the current stage scope
// runs GEMM-family kernels at.
func (c *Ctx) ActivePrecision() precision.Type { return c.prec }

func (c *Ctx) emit(s kernels.Spec) {
	if c.Rec != nil {
		c.Rec.Kernel(s)
	}
	if c.Prof != nil {
		c.Prof.Kernel(s)
	}
}

// emitAll emits specs in order.
func (c *Ctx) emitAll(specs []kernels.Spec) {
	for _, s := range specs {
		c.emit(s)
	}
}

// emitP emits a kernel spec stamped with the context's active storage
// precision — used by the operators that have low-precision variants,
// so the analytic device model prices the reduced-precision
// launch (scaled DRAM traffic, higher achievable throughput).
func (c *Ctx) emitP(s kernels.Spec) { c.emit(c.atPrec(s)) }

// atPrec returns s stamped with the context's active storage precision.
func (c *Ctx) atPrec(s kernels.Spec) kernels.Spec {
	if c.prec != precision.F32 {
		s.Bits = c.prec.Bits()
	}
	return s
}

// taping reports whether backward steps should be recorded for an operator
// whose inputs include the given vars. A frozen parameter under a tape
// is a bug in the caller — its backward would write gradients into (and
// an optimizer then train) weights every concurrent inference shares,
// against panels packed from the old values — so it panics here, in the
// one place every operator asks.
func (c *Ctx) taping(vs ...*Var) bool {
	if c.Tape == nil {
		return false
	}
	for _, v := range vs {
		if v.Frozen != nil && v.NeedGrad {
			panic("ops: frozen store network used under a tape: Build a private network")
		}
	}
	for _, v := range vs {
		if v.Value.Abstract() {
			return false
		}
	}
	for _, v := range vs {
		if v.NeedGrad {
			return true
		}
	}
	return false
}

func anyAbstract(vs ...*Var) bool {
	for _, v := range vs {
		if v.Value.Abstract() {
			return true
		}
	}
	return false
}

// out builds the zero-filled result Var for an operator: abstract if any
// input is abstract, drawn from the context's Arena when it has one and
// no tape, and marked NeedGrad if gradients will flow.
func (c *Ctx) out(shape []int, inputs ...*Var) *Var { return c.result(shape, true, inputs) }

// outUninit is out for an operator that overwrites every element of its
// result before reading any: an arena result then skips the zero fill
// (under engine.SetDebug a missed element reads as a NaN from the
// poisoned slab). Without an arena it is out.
func (c *Ctx) outUninit(shape []int, inputs ...*Var) *Var { return c.result(shape, false, inputs) }

func (c *Ctx) result(shape []int, zero bool, inputs []*Var) *Var {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var t *tensor.Tensor
	switch {
	case anyAbstract(inputs...):
		t = tensor.NewAbstract(shape...)
	case c.Arena == nil || c.Tape != nil || n <= 0:
		t = tensor.New(shape...) // n <= 0: New names the bad dimension
	case zero:
		t = tensor.FromSlice(c.Arena.Alloc(n), shape...)
	default:
		t = tensor.FromSlice(c.Arena.AllocUninit(n), shape...)
	}
	v := autograd.NewVar(t)
	if c.taping(inputs...) {
		v.NeedGrad = true
	}
	return v
}

func assertRank(v *Var, rank int, op string) {
	if v.Value.Rank() != rank {
		panic(fmt.Sprintf("ops: %s expects rank-%d input, got shape %v", op, rank, v.Value.Shape()))
	}
}

// tapeStep registers a backward step that is skipped when the operator's
// output never received a gradient (its result feeds a disconnected part
// of the graph, e.g. encoders under the Zero fusion).
func (c *Ctx) tapeStep(out *Var, fn func()) {
	c.Tape.Append(func() {
		if out.Grad == nil {
			return
		}
		fn()
	})
}
