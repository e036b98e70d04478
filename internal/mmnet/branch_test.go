package mmnet_test

import (
	"fmt"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/engine"
	"mmbench/internal/fusion"
	"mmbench/internal/mmnet"
	"mmbench/internal/models"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// branchCases covers 1, 2, 3 and 4 encoder branches: a uni-modal
// baseline, AV-MNIST (two LeNets), CMU-MOSEI (transformer with dropout
// + two LSTMs — exercises the per-branch RNG streams), and the
// four-modality medical segmentation workload.
var branchCases = []struct {
	name, workload, variant string
	branches                int
}{
	{"uni1", "avmnist", "uni:image", 1},
	{"avmnist2", "avmnist", "concat", 2},
	{"mosei3", "mosei", "concat", 3},
	{"medseg4", "medseg", "concat", 4},
}

// TestBranchParallelForwardBitwise runs the same eager forward twice —
// sequential reference vs modality-parallel — and requires bitwise
// identical outputs.
func TestBranchParallelForwardBitwise(t *testing.T) {
	for _, tc := range branchCases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := workloads.Build(tc.workload, tc.variant, false, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := n.NumModalities(); got != tc.branches {
				t.Fatalf("workload has %d branches, case expects %d", got, tc.branches)
			}
			b := n.Gen.Batch(tensor.NewRNG(11), 4)
			// An explicit 4-worker engine keeps branches genuinely
			// concurrent (the executor bounds overlap by the worker
			// budget) even on a single-CPU host, so -race sees the
			// real interleavings. Any engine is bitwise-equivalent.
			eng := engine.New(4)
			defer eng.Close()
			// The packed GEMM core must engage under both schedules —
			// otherwise this test would pass without covering the packed
			// kernels' determinism contract.
			packs := eng.Stats().Pack.PanelCheckouts
			seq := n.Forward(&ops.Ctx{Eng: eng, SequentialBranches: true}, b)
			if now := eng.Stats().Pack.PanelCheckouts; now == packs {
				t.Fatal("sequential forward drew no pack panels — packed GEMM core not exercised")
			}
			packs = eng.Stats().Pack.PanelCheckouts
			par := n.Forward(&ops.Ctx{Eng: eng}, b)
			if now := eng.Stats().Pack.PanelCheckouts; now == packs {
				t.Fatal("parallel forward drew no pack panels — packed GEMM core not exercised")
			}
			sd, pd := seq.Value.Data(), par.Value.Data()
			if len(sd) != len(pd) {
				t.Fatalf("output sizes differ: %d vs %d", len(sd), len(pd))
			}
			for i := range sd {
				if sd[i] != pd[i] {
					t.Fatalf("output[%d]: parallel %v != sequential %v", i, pd[i], sd[i])
				}
			}
		})
	}
}

// trainSteps runs k Adam steps on n with the given branch schedule and
// returns nothing; determinism is checked by comparing n's parameters.
// The parallel schedule gets a 4-worker engine so branch forward and
// backward genuinely overlap under -race even on a single-CPU host.
func trainSteps(t *testing.T, n *mmnet.Network, sequential bool, k int) {
	t.Helper()
	opt := train.NewAdam(1e-3)
	rng := tensor.NewRNG(5)
	params := n.Params()
	var eng *engine.Engine
	if !sequential {
		eng = engine.New(4)
		defer eng.Close()
	}
	for s := 0; s < k; s++ {
		b := n.Gen.Batch(rng.Split(int64(s)), 4)
		tape := autograd.NewTape()
		c := &ops.Ctx{Tape: tape, RNG: rng, Eng: eng, SequentialBranches: sequential}
		out := n.Forward(c, b)
		loss := n.Loss(c, out, b)
		tape.Backward(loss)
		opt.Step(params)
	}
}

// TestBranchParallelTrainingBitwise trains two identically-initialized
// networks — one sequential, one branch-parallel — and requires every
// parameter to stay bitwise identical. This covers the concurrent
// branch backward replay and the per-branch dropout RNG streams.
func TestBranchParallelTrainingBitwise(t *testing.T) {
	for _, tc := range branchCases {
		t.Run(tc.name, func(t *testing.T) {
			nSeq, err := workloads.Build(tc.workload, tc.variant, false, 7)
			if err != nil {
				t.Fatal(err)
			}
			nPar, err := workloads.Build(tc.workload, tc.variant, false, 7)
			if err != nil {
				t.Fatal(err)
			}
			trainSteps(t, nSeq, true, 2)
			trainSteps(t, nPar, false, 2)
			ps, pp := nSeq.Params(), nPar.Params()
			if len(ps) != len(pp) {
				t.Fatalf("param counts differ: %d vs %d", len(ps), len(pp))
			}
			for i := range ps {
				sd, pd := ps[i].Value.Data(), pp[i].Value.Data()
				for j := range sd {
					if sd[j] != pd[j] {
						t.Fatalf("param %d elem %d: parallel %v != sequential %v",
							i, j, pd[j], sd[j])
					}
				}
			}
		})
	}
}

// panicEncoder wraps an Encoder and panics during Encode.
type panicEncoder struct{ models.Encoder }

func (p panicEncoder) Encode(*ops.Ctx, models.Input) *ops.Var {
	panic("boom")
}

// TestForwardScopeResetOnPanic pins the regression: a panicking encoder
// must not leave the recorder scope dirty, or a recovered benchmark run
// would attribute later kernels to the wrong (stage, modality).
func TestForwardScopeResetOnPanic(t *testing.T) {
	recs := map[bool]*scopeRecorder{}
	for _, sequential := range []bool{true, false} {
		n := buildNet(t)
		n.Encoders[1] = panicEncoder{n.Encoders[1]}
		rec := &scopeRecorder{}
		recs[sequential] = rec
		c := &ops.Ctx{Rec: rec, SequentialBranches: sequential}
		b := n.Gen.Batch(tensor.NewRNG(1), 2)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("expected the encoder panic to propagate")
				} else if r != "boom" {
					t.Fatalf("panic value %v, want the original", r)
				}
			}()
			n.Forward(c, b)
		}()
		if rec.stage != "" || rec.modality != "" {
			t.Fatalf("sequential=%v: scope left dirty at (%q, %q)",
				sequential, rec.stage, rec.modality)
		}
	}
	// A recovering caller must observe the same recorded prefix under
	// either schedule: every branch before the panic, nothing after.
	seq, par := recs[true], recs[false]
	if len(seq.stages) == 0 {
		t.Fatal("sequential run recorded nothing before the panic")
	}
	if len(par.stages) != len(seq.stages) {
		t.Fatalf("recorded %d kernels under parallel, %d under sequential",
			len(par.stages), len(seq.stages))
	}
	for i := range seq.stages {
		if par.stages[i] != seq.stages[i] || par.modalities[i] != seq.modalities[i] {
			t.Fatalf("kernel %d attribution differs: (%s,%s) vs (%s,%s)", i,
				par.stages[i], par.modalities[i], seq.stages[i], seq.modalities[i])
		}
	}
}

// TestBranchStatsCounts checks the executor counters move and a
// taped parallel forward records a backward join.
func TestBranchStatsCounts(t *testing.T) {
	n := buildNet(t) // avmnist/concat: 2 branches
	b := n.Gen.Batch(tensor.NewRNG(2), 2)
	// Branches fork only on an engine with a worker to spare; pin one so
	// the test does not depend on the machine's core count.
	eng := engine.New(4)
	defer eng.Close()

	tape := autograd.NewTape()
	c := &ops.Ctx{Tape: tape, Eng: eng}
	out := n.Forward(c, b)
	loss := n.Loss(c, out, b)
	tape.Backward(loss)

	n.Forward(&ops.Ctx{Eng: eng, SequentialBranches: true}, b)

	want := engine.BranchActivity{
		ParallelForwards: 1, SequentialForwards: 1,
		BranchesLaunched: 2, MaxBranches: 2, ParallelBackwards: 1,
	}
	if got := eng.Stats().Branches; got != want {
		t.Fatalf("branch counters %+v, want %+v", got, want)
	}
}

// TestSharedParamsFallBackToSequential builds a two-branch network
// whose branches share one encoder instance (and thus one parameter
// set), which must force the sequential fallback: parallel backward
// replay would race on the shared gradient tensors.
func TestSharedParamsFallBackToSequential(t *testing.T) {
	n := mlpNet(t, 2, true)
	b := n.Gen.Batch(tensor.NewRNG(4), 2)
	eng := engine.New(4)
	defer eng.Close()

	// Untaped forwards only read parameters, so sharing is harmless and
	// the parallel path stays eligible.
	before := eng.Stats().Branches
	n.Forward(&ops.Ctx{Eng: eng}, b)
	after := eng.Stats().Branches
	if after.ParallelForwards <= before.ParallelForwards {
		t.Fatal("untaped shared-parameter forward should still run in parallel")
	}

	// A taped forward must fall back: concurrent branch backward replay
	// would race on the shared gradient tensors. The check runs per
	// call, so rewiring Encoders after a previous Forward is seen.
	before = eng.Stats().Branches
	tape := autograd.NewTape()
	c := &ops.Ctx{Tape: tape, Eng: eng}
	out := n.Forward(c, b)
	loss := n.Loss(c, out, b)
	tape.Backward(loss)
	after = eng.Stats().Branches
	if after.ParallelForwards != before.ParallelForwards {
		t.Fatal("taped shared-parameter branches must not run in parallel")
	}
	if after.SequentialForwards <= before.SequentialForwards {
		t.Fatal("sequential fallback not taken")
	}
	for _, p := range n.Params() {
		if p.Grad != nil && p.Grad.MaxAbs() > 0 {
			return // gradients flowed through the fallback
		}
	}
	t.Fatal("no gradients reached the shared encoder")
}

// mlpNet builds a network of `encoders` dense modalities, each encoded
// by an MLP — one shared instance (and thus one parameter set) when
// shared, else one instance per branch.
func mlpNet(t *testing.T, encoders int, shared bool) *mmnet.Network {
	t.Helper()
	g := tensor.NewRNG(3)
	n := &mmnet.Network{
		Name: fmt.Sprintf("mlp%d/shared=%v", encoders, shared),
		Task: data.Classify,
	}
	var specs []data.ModalitySpec
	dims := make([]int, encoders)
	sharedEnc := models.NewMLPEncoder(g.Split(1), 8, 16)
	for i := range dims {
		name := fmt.Sprintf("m%d", i)
		specs = append(specs, data.ModalitySpec{Name: name, Kind: data.Dense, Shape: []int{8}, RawBytes: 32})
		n.Modalities = append(n.Modalities, name)
		enc := sharedEnc
		if !shared {
			enc = models.NewMLPEncoder(g.Split(10+int64(i)), 8, 16)
		}
		n.Encoders = append(n.Encoders, enc)
		dims[i] = 16
	}
	n.Gen = data.NewGenerator("mlp", specs, data.Classify, 2, 3)
	fus, err := fusion.New("concat", g.Split(2), dims, 16)
	if err != nil {
		t.Fatal(err)
	}
	n.Fusion = fus
	n.Head = models.NewClassifierHead(g.Split(3), 16, 16, 2)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBranchScheduleRule pins the one place a schedule is chosen: the
// encoder branches fork exactly when the network has more than one
// encoder, no recorder is attached, the engine has more than one worker
// and a taped forward's branches share no parameter. An abstract batch
// is not a condition. Whichever loop runs, the output is bitwise the
// SequentialBranches run's.
func TestBranchScheduleRule(t *testing.T) {
	type tapeMode int
	const (
		noTape tapeMode = iota
		tapedIndependent
		tapedShared
	)
	tapeNames := map[tapeMode]string{noTape: "untaped", tapedIndependent: "taped", tapedShared: "taped-shared"}
	for _, encoders := range []int{1, 3} {
		for _, recorded := range []bool{true, false} {
			for _, abstract := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					for _, mode := range []tapeMode{noTape, tapedIndependent, tapedShared} {
						wantFork := encoders > 1 && !recorded && workers > 1 && mode != tapedShared
						name := fmt.Sprintf("enc=%d/rec=%v/abstract=%v/w=%d/%s", encoders, recorded, abstract, workers, tapeNames[mode])
						t.Run(name, func(t *testing.T) {
							n := mlpNet(t, encoders, mode == tapedShared)
							b := n.Gen.Batch(tensor.NewRNG(4), 2)
							if abstract {
								b = n.Gen.AbstractBatch(2)
							}
							eng := engine.New(workers)
							defer eng.Close()
							// run reports the output and how many forwards each
							// schedule counted.
							run := func(sequential bool) (out *ops.Var, parallel, sequentials int64) {
								c := &ops.Ctx{Eng: eng, SequentialBranches: sequential}
								if recorded {
									c.Rec = &scopeRecorder{}
								}
								if mode != noTape {
									c.Tape = autograd.NewTape()
								}
								before := eng.Stats().Branches
								out = n.Forward(c, b)
								after := eng.Stats().Branches
								return out, after.ParallelForwards - before.ParallelForwards,
									after.SequentialForwards - before.SequentialForwards
							}
							want, par, seq := run(true)
							if par != 0 || seq != 1 {
								t.Fatalf("SequentialBranches run counted %d parallel, %d sequential forwards", par, seq)
							}
							var wantPar int64
							if wantFork {
								wantPar = 1
							}
							got, par, seq := run(false)
							if par != wantPar || seq != 1-wantPar {
								t.Fatalf("counted %d parallel, %d sequential forwards, want %d and %d", par, seq, wantPar, 1-wantPar)
							}
							if !tensor.SameShape(got.Value, want.Value) {
								t.Fatalf("output shape %v, sequential %v", got.Value.Shape(), want.Value.Shape())
							}
							if abstract {
								return
							}
							gd, wd := got.Value.Data(), want.Value.Data()
							for i := range wd {
								if gd[i] != wd[i] {
									t.Fatalf("output[%d] = %v, sequential run %v", i, gd[i], wd[i])
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestBranchKernelsRunOnTheRunsEngine pins ownership: a forward's
// encoder branches, forked or not, execute on the context's own engine.
// That engine counts the same chunks under either schedule and gets all
// its scratch back, and the process default engine sees nothing.
func TestBranchKernelsRunOnTheRunsEngine(t *testing.T) {
	n, err := workloads.Build("mosei", "concat", false, 7) // three modalities
	if err != nil {
		t.Fatal(err)
	}
	b := n.Gen.Batch(tensor.NewRNG(11), 4)
	defBefore := engine.Default().Stats()
	tasks := func(sequential bool) int64 {
		eng := engine.New(4)
		defer eng.Close()
		n.Forward(&ops.Ctx{Eng: eng, SequentialBranches: sequential}, b)
		s := eng.Stats()
		if forked := s.Branches.ParallelForwards > 0; forked == sequential {
			t.Fatalf("sequential=%v but forked=%v", sequential, forked)
		}
		if s.PoolOutstanding != 0 {
			t.Fatalf("sequential=%v: %d pooled buffers not returned to the run's engine", sequential, s.PoolOutstanding)
		}
		return s.Tasks
	}
	seq, par := tasks(true), tasks(false)
	if seq == 0 || par != seq {
		t.Fatalf("run's engine executed %d chunks with forked branches, %d with the sequential loop: encoder kernels ran elsewhere", par, seq)
	}
	if def := engine.Default().Stats(); def != defBefore {
		t.Fatalf("default engine moved during a run on its own engine: %+v -> %+v", defBefore, def)
	}
}

// TestForwardActivityBelongsToTheRunsEngine pins counter ownership: an
// eager mosei forward on a private engine moves that engine's pack,
// attention and branch counters — and, under an i8 policy, its precision
// counters — while the default engine's Stats do not move at all.
func TestForwardActivityBelongsToTheRunsEngine(t *testing.T) {
	n, err := workloads.Build("mosei", "concat", false, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := n.Gen.Batch(tensor.NewRNG(11), 2)
	for _, policy := range []string{"f32", "i8"} {
		pol, err := precision.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		defBefore := engine.Default().Stats()
		eng := engine.New(4)
		n.Forward(&ops.Ctx{Eng: eng, Precision: pol}, b)
		s := eng.Stats()
		eng.Close()
		if s.Pack.PanelCheckouts == 0 || s.Pack.PanelBytes == 0 {
			t.Errorf("%s: the run's engine counted no pack panels: %+v", policy, s.Pack)
		}
		if s.Attention.FusedCalls == 0 || s.Attention.ScratchBytes == 0 {
			t.Errorf("%s: the run's engine counted no attention: %+v", policy, s.Attention)
		}
		if s.Branches.ParallelForwards != 1 || s.Branches.BranchesLaunched != 3 {
			t.Errorf("%s: the run's engine counted branches %+v, want one forward of 3", policy, s.Branches)
		}
		if (s.Precision.I8Kernels > 0) != (policy == "i8") || s.Precision.F16Kernels != 0 {
			t.Errorf("%s: the run's engine counted precision %+v", policy, s.Precision)
		}
		if def := engine.Default().Stats(); def != defBefore {
			t.Errorf("%s: the default engine moved during a run on its own engine: %+v -> %+v", policy, defBefore, def)
		}
	}
}
