package ops

import (
	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/tensor"
)

// Engine returns the compute engine this context's kernels execute on
// (the process default when Eng is nil) — all of them: a forward's
// encoder branches run on it too, and fork only when it has more than
// one worker (see mmnet's encodeBranches).
func (c *Ctx) Engine() *engine.Engine { return c.engine() }

// ForkBranch returns a child context for one encoder branch: the
// branch's own tape (isolated when branches run concurrently, the
// parent's in the sequential loop) and its own dropout stream;
// everything else — the engine handle with its cancel flag, the
// precision policy, the merge segments, the run's arena
// (safe for concurrent use) — is the parent's. A concurrent branch also
// needs its own Prof shard, which the executor sets on the child.
func (c *Ctx) ForkBranch(tape *autograd.Tape, rng *tensor.RNG) *Ctx {
	child := *c
	child.Tape = tape
	child.RNG = rng
	return &child
}
