// Encoder-branch executor.
//
// MMBench's central observation is that end-to-end multi-modal networks
// are staged: per-modality encoder branches are mutually independent
// and only join at the modality-sync barrier before fusion. The
// executor overlaps them — one goroutine per branch, at most Workers()
// computing at once, all on the run's own engine — where there is math
// to overlap and a spare worker to overlap it on, and runs them one
// after another everywhere else (encodeBranches holds the rule). The
// two schedules are bitwise identical:
//
//   - Values: eager kernels are deterministic at any engine worker
//     count, and branches share no tensors, so per-branch outputs are
//     the sequential ones regardless of scheduling.
//   - Gradients: each branch records backward steps onto an isolated
//     tape; the main tape gets one join step (appended before any
//     fusion step) that replays the branch segments concurrently during
//     Backward. Branch segments touch disjoint parameter/activation
//     sets — enforced by a per-call shared-parameter check — so
//     concurrent replay accumulates exactly the sequential gradients.
//   - RNG: dropout streams are per-branch, split from the step RNG in
//     modality order on the coordinating goroutine. Both schedules use
//     the same split, so the two stay bitwise identical in training
//     mode too.
//
// A recorder (ops.Ctx.Rec) only ever sees the sequential loop, so its
// event sequence has one order by construction.

package mmnet

import (
	"sync"
	"sync/atomic"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/models"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// branchSeedBase labels the per-branch RNG splits so branch streams
// cannot collide with the data generator's step splits (small labels).
const branchSeedBase = 0x6d6d6272616e << 4 // "mmbran"

// encodeBranches runs every encoder branch and returns the per-modality
// features. It is the one place a schedule is chosen, from what it can
// observe: the branches fork only when there is more than one of them,
// the context does not ask for the reference loop, no recorder is
// attached (a recorded forward is a walk over shapes — plan.Compile's —
// with no math to overlap, and a recorder is single-goroutine), the
// engine has a worker to spare (at one worker the concurrency cap would
// admit one branch at a time: the sequential loop plus goroutines), and,
// when taped, the branches share no parameter — re-checked per call
// because Encoders is an exported field callers may rewire between
// runs. Otherwise the branches run one after another.
func (n *Network) encodeBranches(c *ops.Ctx, b *data.Batch) []*ops.Var {
	if len(n.Encoders) > 1 && !c.SequentialBranches && c.Rec == nil &&
		c.Engine().Workers() > 1 && (c.Tape == nil || n.branchesIndependent()) {
		return n.encodeParallel(c, b)
	}
	return n.encodeSequential(c, b)
}

// branchRNGs derives one dropout RNG per branch from the context RNG,
// in modality order on the calling goroutine. Both execution paths use
// this same derivation, which is what keeps them bitwise identical:
// parallel branches cannot interleave draws on a shared stream, so the
// sequential path must not share one either. Single-branch networks
// never fork, so they draw from the parent stream.
func (n *Network) branchRNGs(c *ops.Ctx) []*tensor.RNG {
	if c.RNG == nil || !c.Training || len(n.Encoders) < 2 {
		return nil
	}
	rngs := make([]*tensor.RNG, len(n.Encoders))
	for i := range rngs {
		rngs[i] = c.RNG.Split(branchSeedBase + int64(i))
	}
	return rngs
}

// encodeSequential is the reference branch loop: one encoder after
// another on the caller's goroutine, tape and recorder.
func (n *Network) encodeSequential(c *ops.Ctx, b *data.Batch) []*ops.Var {
	branchActivity.sequentialForwards.Add(1)
	rngs := n.branchRNGs(c)
	feats := make([]*ops.Var, len(n.Encoders))
	for i, enc := range n.Encoders {
		setScope(c, StageEncoder, n.Modalities[i])
		bc := c
		if rngs != nil {
			bc = c.ForkBranch(c.Tape, rngs[i])
		}
		feats[i] = enc.Encode(bc, n.inputFor(b, n.Modalities[i]))
	}
	return feats
}

// encodeParallel runs one goroutine per encoder branch, every branch on
// the context's own engine handle (cancel flag included), and joins
// deterministically in fixed modality order.
func (n *Network) encodeParallel(c *ops.Ctx, b *data.Batch) []*ops.Var {
	nb := len(n.Encoders)
	branchActivity.parallelForwards.Add(1)
	branchActivity.branchesLaunched.Add(int64(nb))
	maxAtomic(&branchActivity.maxBranches, int64(nb))

	rngs := n.branchRNGs(c)
	if rngs == nil {
		rngs = make([]*tensor.RNG, nb) // no dropout: branches get no stream
	}
	// Inputs are assembled on the coordinator: batch map reads and Var
	// wrapping stay single-goroutine, in modality order.
	inputs := make([]models.Input, nb)
	for i, m := range n.Modalities {
		inputs[i] = n.inputFor(b, m)
	}
	// A profiler shard is single-goroutine: one per branch, forked on
	// the coordinator and merged at the join, both in modality order.
	var pshards []*obs.Shard
	if c.Prof != nil {
		pshards = make([]*obs.Shard, nb)
		for i := range pshards {
			pshards[i] = c.Prof.Fork()
		}
	}
	tapes := make([]*autograd.Tape, nb) // nil entries on an untaped forward
	if c.Tape != nil {
		for i := range tapes {
			tapes[i] = autograd.NewTape()
		}
	}

	// At most Workers() branches compute at once. They share the
	// engine's workers the way nested ParallelFor calls do: a branch
	// goroutine drains its own kernels' chunks and the Workers()-1 pool
	// workers help whichever kernel woke them.
	maxConc := c.Engine().Workers()

	feats := make([]*ops.Var, nb)
	firstPanic, panicVal := runLimited(nb, maxConc, func(i int) {
		bc := c.ForkBranch(tapes[i], rngs[i])
		if pshards != nil {
			// ForkBranch copies the parent context, so the branch would
			// otherwise share the coordinator's (single-goroutine) shard.
			bc.Prof = pshards[i]
		}
		setScope(bc, StageEncoder, n.Modalities[i])
		feats[i] = n.Encoders[i].Encode(bc, inputs[i])
		// Close the branch's last kernel span on the branch goroutine,
		// while "now" is still this branch's actual end.
		bc.Prof.End()
	})

	// Deterministic join, panic-equivalent to the sequential loop: the
	// branches a sequential run would have touched before the first
	// panic — every earlier branch plus the panicking branch's partial
	// spans and steps — are merged; later branches (which sequential
	// execution would never have started) are dropped.
	joined := nb
	if firstPanic >= 0 {
		joined = firstPanic + 1
	}
	// Profiler shards merge in fixed modality order, so the profiler's
	// span list is deterministic for a given schedule.
	for _, s := range pshards[:min(joined, len(pshards))] {
		s.Merge()
	}
	// The main tape gets one join step covering every branch segment.
	// It is appended before fusion records anything, so Backward reaches
	// it after the fusion steps have seeded every branch's feature
	// gradient; the segments touch disjoint variables and replay
	// concurrently, on the engine their forward ran on.
	if c.Tape != nil && tapedSteps(tapes[:joined]) > 0 {
		join := tapes[:joined]
		c.Tape.Append(func() {
			branchActivity.parallelBackwards.Add(1)
			if _, p := runLimited(len(join), maxConc, func(i int) { join[i].Replay() }); p != nil {
				panic(p)
			}
		})
	}
	if firstPanic >= 0 {
		// Re-raise the first branch panic in modality order — the
		// panic a sequential run would have surfaced.
		panic(panicVal)
	}
	return feats
}

// tapedSteps sums the recorded backward steps across branch tapes
// (abstract batches tape nothing; skip the join step entirely then).
func tapedSteps(tapes []*autograd.Tape) int {
	total := 0
	for _, t := range tapes {
		total += t.Len()
	}
	return total
}

// runLimited runs fn(0..n-1) on n goroutines with at most maxConc (≥ 1)
// executing fn at once (the worker-budget bound shared by branch
// forward and backward replay), waits for all of them, and returns the
// index and value of the lowest-indexed panic (-1, nil if none).
func runLimited(n, maxConc int, fn func(i int)) (int, any) {
	slots := make(chan struct{}, maxConc)
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			return i, p
		}
	}
	return -1, nil
}

// branchesIndependent reports whether no parameter is shared between
// two encoder branches — the precondition for replaying branch backward
// segments concurrently (shared parameters would make two segments race
// on one gradient tensor). It runs only on taped forwards, where its
// cost disappears under the backward math it guards.
func (n *Network) branchesIndependent() bool {
	seen := make(map[*ops.Var]int, 64)
	for i, enc := range n.Encoders {
		for _, p := range enc.Params() {
			if owner, ok := seen[p]; ok && owner != i {
				return false
			}
			seen[p] = i
		}
	}
	return true
}

// maxAtomic raises a monotone atomic maximum.
func maxAtomic(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// branchActivity counts executor work for /v1/stats.
var branchActivity struct {
	parallelForwards   atomic.Int64
	sequentialForwards atomic.Int64
	branchesLaunched   atomic.Int64
	maxBranches        atomic.Int64
	parallelBackwards  atomic.Int64
}

// BranchActivity is a snapshot of branch-executor counters.
type BranchActivity struct {
	// ParallelForwards counts Forward calls that ran their encoder
	// branches concurrently; SequentialForwards counts the sequential
	// loop — every forward encodeBranches did not fork.
	ParallelForwards   int64 `json:"parallel_forwards"`
	SequentialForwards int64 `json:"sequential_forwards"`
	// BranchesLaunched is the total branch goroutines started;
	// MaxBranches is the widest join seen.
	BranchesLaunched int64 `json:"branches_launched"`
	MaxBranches      int64 `json:"max_branches"`
	// ParallelBackwards counts join steps replayed during Backward.
	ParallelBackwards int64 `json:"parallel_backwards"`
}

// BranchStats snapshots the process-wide branch-executor counters.
func BranchStats() BranchActivity {
	return BranchActivity{
		ParallelForwards:   branchActivity.parallelForwards.Load(),
		SequentialForwards: branchActivity.sequentialForwards.Load(),
		BranchesLaunched:   branchActivity.branchesLaunched.Load(),
		MaxBranches:        branchActivity.maxBranches.Load(),
		ParallelBackwards:  branchActivity.parallelBackwards.Load(),
	}
}
