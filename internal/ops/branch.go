package ops

import (
	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/tensor"
)

// Modality-parallel branch execution support.
//
// The branch executor in internal/mmnet runs per-modality encoder
// subgraphs concurrently, one goroutine per branch. Each branch receives
// a forked Ctx whose tape, recorder, RNG and engine are isolated from
// the parent, so the concurrently-running operators never share mutable
// state; the executor merges the per-branch artifacts deterministically
// at the modality-sync join. Ctx.SequentialBranches selects the
// reference schedule instead — the same branches, one after another.

// ParallelBranches reports whether this context asks for concurrent
// encoder branches (the executor still falls back to the sequential loop
// for inputs that cannot fork: one branch, or a tape with shared
// parameters).
func (c *Ctx) ParallelBranches() bool { return !c.SequentialBranches }

// Engine returns the compute engine this context's kernels execute on
// (the process default when Eng is nil). The branch executor splits
// this engine's worker budget across active branches.
func (c *Ctx) Engine() *engine.Engine { return c.engine() }

// ForkBranch returns a child context for one concurrently-executing
// encoder branch: training mode and the precision policy are inherited,
// while the tape, recorder, RNG and engine are replaced with the
// branch-isolated instances supplied by the executor. Passing the
// parent's own tape/recorder/engine is valid for the sequential
// reference path.
func (c *Ctx) ForkBranch(tape *autograd.Tape, rec Recorder, rng *tensor.RNG, eng *engine.Engine) *Ctx {
	child := *c
	child.Tape = tape
	child.Rec = rec
	child.RNG = rng
	child.Eng = eng
	return &child
}
