package engine

import (
	"sync/atomic"

	"mmbench/internal/precision"
)

// Kernel activity: what the work an engine ran did beyond its chunks and
// pool traffic. The kernels that produce an event count it on the engine
// they ran on — panel and scratch checkouts through that engine's counted
// getters, everything else through one Count method per event — so a
// run's engine, and nothing else, holds the whole record of its work.
// Stats snapshots the four blocks next to the engine's own counters (and
// the run-scoped arenas' block, arena.go).

// PackActivity counts the packed GEMM core's per-call panels: the pooled
// buffers drawn through GetPanel, whatever element the panels hold (a
// low-precision panel is a view of float32 memory, so its bytes count
// exactly). The panels a gemm.PackedB keeps are heap memory, packed once,
// and are not counted here (their owner reports them — the model store's
// packed bytes).
type PackActivity struct {
	// PanelCheckouts counts pooled panel buffers drawn (A and B panels
	// across every packed kernel invocation).
	PanelCheckouts int64 `json:"panel_checkouts"`
	// PanelBytes is the total bytes of panel scratch drawn.
	PanelBytes int64 `json:"panel_bytes"`
	// PanelPoolHits counts checkouts satisfied from the pool's free list
	// (the rest allocated fresh).
	PanelPoolHits int64 `json:"panel_pool_hits"`
}

// HitRate returns the fraction of panel checkouts served from the pool.
func (a PackActivity) HitRate() float64 {
	if a.PanelCheckouts == 0 {
		return 0
	}
	return float64(a.PanelPoolHits) / float64(a.PanelCheckouts)
}

// AttentionActivity counts fused-attention work: operator invocations and
// the Scratch checkouts its tiles draw (the memory that replaced the
// materialized score matrix).
type AttentionActivity struct {
	// FusedCalls is the number of fused Ctx.Attention executions
	// (eager forwards; analytic spec-only calls are not counted).
	FusedCalls int64 `json:"fused_calls"`
	// ScratchCheckouts / ScratchBytes measure pooled attention scratch
	// drawn for score tiles, accumulators and backward recomputation.
	ScratchCheckouts int64 `json:"scratch_checkouts"`
	ScratchBytes     int64 `json:"scratch_bytes"`
}

// PrecisionActivity counts reduced-precision execution.
type PrecisionActivity struct {
	// F16Kernels / I8Kernels count eager GEMM-family kernel executions
	// that ran at the reduced precision (analytic spec-only calls are
	// not counted).
	F16Kernels int64 `json:"f16_kernels"`
	I8Kernels  int64 `json:"i8_kernels"`
}

// BranchActivity counts how forwards ran their encoder branches.
type BranchActivity struct {
	// ParallelForwards counts forwards that ran their encoder branches
	// concurrently; SequentialForwards counts the sequential loop — every
	// forward the branch executor did not fork.
	ParallelForwards   int64 `json:"parallel_forwards"`
	SequentialForwards int64 `json:"sequential_forwards"`
	// BranchesLaunched is the total branch goroutines started;
	// MaxBranches is the widest join seen.
	BranchesLaunched int64 `json:"branches_launched"`
	MaxBranches      int64 `json:"max_branches"`
	// ParallelBackwards counts join steps replayed during Backward.
	ParallelBackwards int64 `json:"parallel_backwards"`
}

// activity holds the counters behind the four snapshot types.
type activity struct {
	panelCheckouts, panelBytes, panelPoolHits atomic.Int64
	attnCalls, attnCheckouts, attnBytes       atomic.Int64
	f16Kernels, i8Kernels                     atomic.Int64

	parallelForwards, sequentialForwards, branchesLaunched, maxBranches, parallelBackwards atomic.Int64

	arena arenaCounters
}

// act returns the handle's activity counters, nil for a nil engine (whose
// work is counted nowhere).
func (e *Engine) act() *activity {
	if e == nil || e.st == nil {
		return nil
	}
	return &e.st.act
}

// GetPanel is GetUninit for a packed-GEMM operand panel, counted in
// Stats().Pack. Return it with Put.
func (e *Engine) GetPanel(n int) []float32 {
	buf, hit := e.get(n)
	if a := e.act(); a != nil {
		a.panelCheckouts.Add(1)
		a.panelBytes.Add(int64(n) * 4)
		if hit {
			a.panelPoolHits.Add(1)
		}
	}
	return buf
}

// CountAttention counts one fused attention execution.
func (e *Engine) CountAttention() {
	if a := e.act(); a != nil {
		a.attnCalls.Add(1)
	}
}

// CountLowp counts one GEMM-family kernel executed at precision p: f16
// and i8 each have a counter, and f32 counts nothing, so callers need not
// guard the call.
func (e *Engine) CountLowp(p precision.Type) {
	a := e.act()
	switch {
	case a == nil:
	case p == precision.F16:
		a.f16Kernels.Add(1)
	case p == precision.I8:
		a.i8Kernels.Add(1)
	}
}

// CountBranchForward counts one forward's encoder schedule: forked is the
// number of branches that ran concurrently, 0 for the sequential loop.
func (e *Engine) CountBranchForward(forked int) {
	a := e.act()
	if a == nil {
		return
	}
	if forked == 0 {
		a.sequentialForwards.Add(1)
		return
	}
	a.parallelForwards.Add(1)
	a.branchesLaunched.Add(int64(forked))
	storeMax(&a.maxBranches, int64(forked))
}

// storeMax raises v to x if x is larger.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// CountBranchBackward counts one concurrent replay of forked branches'
// backward segments.
func (e *Engine) CountBranchBackward() {
	if a := e.act(); a != nil {
		a.parallelBackwards.Add(1)
	}
}
