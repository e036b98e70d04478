// Package core is MMBench's suite runner: the end-to-end profiling
// pipeline (Figure 3 of the paper) and the experiment drivers that
// regenerate every table and figure of the evaluation section.
package core

import (
	"context"
	"math"

	"mmbench/internal/data"
	"mmbench/internal/device"
	"mmbench/internal/engine"
	"mmbench/internal/memprof"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

// RunOptions configure one profiled run.
type RunOptions struct {
	// Device is the hardware profile; defaults to the RTX 2080 Ti server.
	Device *device.Profile
	// BatchSize defaults to data.DefaultBatchSize.
	BatchSize int
	// Eager executes real numerics instead of the dataset-free analytic
	// abstraction (slower; required only when outputs matter).
	Eager bool
	// Seed drives data generation in eager mode; defaults to
	// data.DefaultSeed.
	Seed int64
	// Engine runs the eager kernels and holds the run's arena; nil uses
	// the process default (worker count from -compute-workers). Results
	// are identical at any worker count, so the engine never participates
	// in cache keys. A one-worker engine also runs the encoder branches
	// one after another: the reference schedule the determinism tests
	// compare the forked one against.
	Engine *engine.Engine
	// Precision is the per-stage storage-precision policy (the
	// -precision flag). Unlike the engine above it changes results —
	// eager outputs numerically, analytic traces through the
	// precision-scaled kernel costs — so it must participate in cache
	// keys. The zero policy is all-float32 and leaves the run
	// bit-identical to a build with no mixed-precision support.
	Precision precision.Policy
	// Profiler, when non-nil on an eager run, records wall-clock kernel
	// and stage spans of the (merged) forward for trace export; stage
	// walls need none (RunResult.StageSeconds). It is a pure observer
	// (results and traces stay bitwise identical, so it never
	// participates in cache keys) and is ignored on analytic runs, which
	// execute no kernels to time.
	Profiler *obs.Profiler
	// Ctx, when non-nil and cancellable, makes the run cooperative: its
	// cancellation (or deadline) stops the engine's chunk dispatch within
	// one chunk boundary and aborts the run at the next stage-boundary
	// checkpoint, returning ctx.Err(). Uncancelled runs stay bitwise
	// identical to runs with no context (the flag costs one atomic load
	// per chunk claim and per checkpoint).
	Ctx context.Context
}

func (o *RunOptions) defaults() {
	if o.Device == nil {
		o.Device = device.RTX2080Ti()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = data.DefaultBatchSize
	}
	if o.Seed == 0 {
		o.Seed = data.DefaultSeed
	}
	if o.Engine == nil {
		o.Engine = engine.Default()
	}
}

// RunResult is the outcome of one profiled inference.
type RunResult struct {
	Trace  *trace.Trace
	Memory memprof.Profile
	// Latency is the modeled end-to-end wall time including the
	// device's memory-capacity penalty.
	Latency float64
	// Output is the task output (nil shapes in analytic mode).
	Output *ops.Var
	// OutputErrMax and OutputErrMean measure the low-precision output
	// against a float32 reference forward over the same batch: the
	// largest and mean absolute element error. They are populated only
	// for eager runs under a non-trivial precision policy (analytic
	// runs have no numerics to compare).
	OutputErrMax  float64
	OutputErrMean float64
	// StageSeconds is the measured encoder, fusion and head wall-clock
	// time of the eager forward, taken at its stage boundaries (see
	// ops.Ctx.Walls); nil on analytic runs. It lives beside the report
	// fields, never inside them, so reports marshal byte-identically
	// whatever the clock read.
	StageSeconds map[string]float64
}

// Run profiles one inference of the network: host-side loading and
// preprocessing per modality, host→device transfers, the three network
// stages in per-modality streams with a fusion join, and the final
// device→host copy. An eager run is a merged run of one member (see
// RunMerged); an analytic run executes no kernels and is the modeled
// side alone.
func Run(n *mmnet.Network, opts RunOptions) (_ *RunResult, err error) {
	if opts.Eager {
		results, err := RunMerged(n, opts, []MemberSpec{{BatchSize: opts.BatchSize, Seed: opts.Seed}})
		if err != nil {
			return nil, err
		}
		return results[0], nil
	}
	cancel, end, err := begin(n, &opts)
	if err != nil {
		return nil, err
	}
	defer end(&err)
	m, err := model(n, opts, opts.BatchSize)
	if err != nil {
		return nil, err
	}
	// Abort checkpoint: a cancellation that landed during the compile's
	// abstract forward must not be reported as a result.
	if cancel.Cancelled() {
		return nil, cancel.Reason()
	}
	r := *m // a frozen network's template is shared
	return &r, nil
}

// begin is the shared front of every execution: option defaults,
// network validation and, for a cancellable opts.Ctx, the cancellation
// wiring. The run gets a per-run engine handle carrying the returned
// Cancel flag (nil for an uncancellable run), and a context.AfterFunc
// translates context cancellation into one flag signal. The caller
// defers end with its named error result: end unregisters the callback
// and classifies checkpoint aborts (engine.AbortReason) back into
// ordinary errors — any other panic re-raises untouched.
func begin(n *mmnet.Network, opts *RunOptions) (cancel *engine.Cancel, end func(*error), err error) {
	opts.defaults()
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	ctx := opts.Ctx
	if ctx == nil || ctx.Done() == nil {
		return nil, func(*error) {}, nil
	}
	// An already-dead context never starts the run; relying on the
	// callback for this would race the forward on fast runs.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cancel = engine.NewCancel()
	opts.Engine = opts.Engine.WithCancel(cancel)
	stop := context.AfterFunc(ctx, func() { cancel.Signal(ctx.Err()) })
	return cancel, func(err *error) {
		stop()
		if r := recover(); r != nil {
			reason, ok := engine.AbortReason(r)
			if !ok {
				panic(r)
			}
			*err = reason
		}
	}, nil
}

// modelKey is everything the modeled side of a network's report depends
// on. The device is keyed by value: device.ByName returns a fresh profile
// on every call.
type modelKey struct {
	batch  int
	device device.Profile
	policy string
}

// model is the modeled side of a report at one batch size — the trace,
// the memory profile and the capacity-penalised latency — from compiling
// the network into its stage plan (the captured event sequence of one
// abstract forward) and replaying it into a trace builder. Output is the
// abstract forward's (nil shapes). Nothing in it reads a request's data,
// so a frozen network computes it once per (batch size, device, policy)
// and keeps it (mmnet.Network.Memo): the result is a read-only template
// that callers copy before filling in their own fields.
func model(n *mmnet.Network, opts RunOptions, batchSize int) (*RunResult, error) {
	key := modelKey{batch: batchSize, device: *opts.Device, policy: opts.Precision.String()}
	v, err := n.Memo(key, func() (any, int64, error) {
		r, err := compileModel(n, opts, batchSize)
		if err != nil {
			return nil, 0, err
		}
		return r, r.Trace.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*RunResult), nil
}

// compileModel computes model's template.
func compileModel(n *mmnet.Network, opts RunOptions, batchSize int) (*RunResult, error) {
	p, err := plan.Compile(n, plan.Options{BatchSize: batchSize, Precision: opts.Precision, Engine: opts.Engine})
	if err != nil {
		return nil, err
	}
	builder := trace.NewBuilder(opts.Device, n.Modalities)
	p.Replay(builder)
	tr := builder.Finish()
	mem := memprof.Measure(n, tr, batchSize)
	return &RunResult{
		Trace: tr, Memory: mem, Output: p.Output,
		Latency: tr.Wall * opts.Device.CapacityPenalty(mem.AllocatorDemand()),
	}, nil
}

// outputError compares a low-precision output against the f32 reference
// element-wise.
func outputError(got, ref []float32) (errMax, errMean float64) {
	if len(got) != len(ref) || len(got) == 0 {
		return 0, 0
	}
	var sum float64
	for i := range got {
		e := math.Abs(float64(got[i]) - float64(ref[i]))
		if e > errMax {
			errMax = e
		}
		sum += e
	}
	return errMax, sum / float64(len(got))
}

// BuildAndRun builds a private copy of a workload variant and profiles
// it; the network dies with the call. It is one cell of an experiment
// driver's grid (profileGrid). Callers that run one model many times —
// a CachedRunner's eager executions — resolve it through their own
// workloads.Store and call Run instead.
func BuildAndRun(workload, variant string, profile bool, opts RunOptions) (*RunResult, error) {
	n, err := workloads.Build(workload, variant, profile, workloads.WeightSeed)
	if err != nil {
		return nil, err
	}
	return Run(n, opts)
}
