// Package autograd provides tape-based reverse-mode automatic
// differentiation over mmbench tensors. Operators in internal/ops append
// backward closures to a Tape during the forward pass; Backward replays
// them in reverse order, accumulating gradients into Vars.
//
// The tape is deliberately minimal: MMBench only needs enough training
// machinery to reproduce the paper's algorithm-level experiments (Figures 4
// and 5), not a general ML framework.
package autograd

import (
	"fmt"

	"mmbench/internal/gemm"
	"mmbench/internal/tensor"
)

// Var is a tensor tracked by the autograd tape.
type Var struct {
	// Value holds the forward result. It may be abstract in analytic
	// execution mode, in which case no gradient machinery applies.
	Value *tensor.Tensor
	// Grad accumulates dLoss/dValue. It is nil until first needed.
	Grad *tensor.Tensor
	// NeedGrad marks Vars that participate in backward: parameters, and
	// any Var computed from one.
	NeedGrad bool
	// Frozen, when non-nil, marks a parameter of a shared, read-only
	// network (one a workloads.Store handed out): nothing may write its
	// Value or Grad, a taped operator that would refuses it, and untaped
	// products against it keep their packed GEMM panels here. Parameters
	// of a privately built network never have one.
	Frozen *gemm.PackedB
}

// NewVar wraps a tensor as a non-parameter Var.
func NewVar(t *tensor.Tensor) *Var { return &Var{Value: t} }

// Param wraps a tensor as a trainable parameter.
func Param(t *tensor.Tensor) *Var { return &Var{Value: t, NeedGrad: true} }

// EnsureGrad returns the gradient tensor, allocating a zero-filled one on
// first use.
func (v *Var) EnsureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.Value.Shape()...)
	}
	return v.Grad
}

// ZeroGrad clears the accumulated gradient.
func (v *Var) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Tape records backward closures during the forward pass.
type Tape struct {
	steps []func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Append registers a backward step. Steps run in reverse order of
// registration.
func (t *Tape) Append(step func()) { t.steps = append(t.steps, step) }

// Len returns the number of recorded steps.
func (t *Tape) Len() int { return len(t.steps) }

// Reset discards all recorded steps so the tape can be reused.
func (t *Tape) Reset() { t.steps = t.steps[:0] }

// Replay runs the recorded steps in reverse registration order without
// seeding any gradient. It is how the branch executor replays an
// encoder branch's isolated tape segment: the segment's output
// gradients were already seeded by the fusion stage's backward steps on
// the main tape, so replaying the segment continues the chain exactly
// as if its steps had been appended to the main tape.
func (t *Tape) Replay() {
	for i := len(t.steps) - 1; i >= 0; i-- {
		t.steps[i]()
	}
}

// Backward seeds the loss gradient with 1 and replays the tape in reverse.
// The loss must be a scalar (one element).
func (t *Tape) Backward(loss *Var) {
	if loss.Value.Abstract() {
		panic("autograd: Backward on abstract value")
	}
	if loss.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward needs scalar loss, got shape %v", loss.Value.Shape()))
	}
	loss.EnsureGrad().Fill(1)
	t.Replay()
}
