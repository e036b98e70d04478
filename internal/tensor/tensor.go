// Package tensor provides the dense float32 tensor type used by every
// numeric component of MMBench: the operator library, the neural network
// modules, the synthetic data generators and the training loop.
//
// Tensors are row-major. A FromSlice tensor shares the slice it wraps —
// an eager run's operator results wrap slices of the run's arena (see
// ops.Ctx.Arena) and are valid only until the run releases it; every
// other tensor owns its backing storage. A tensor may be "abstract": it carries a shape but no data. Abstract tensors flow
// through the analytic execution mode, where only shapes and kernel costs
// matter and the floating-point math is skipped (MMBench's dataset-free
// computation abstraction).
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
//
// Data is nil for abstract tensors (shape-only). All operations in
// internal/ops handle both concrete and abstract tensors.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled concrete tensor of the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}
}

// NewAbstract returns a shape-only tensor with no backing data.
func NewAbstract(shape ...int) *Tensor {
	checkShape(shape)
	return &Tensor{shape: cloneInts(shape)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
// The length of data must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// Of builds a concrete tensor from values with the given shape.
// Values are copied.
func Of(shape []int, values ...float32) *Tensor {
	t := New(shape...)
	if len(values) != len(t.data) {
		panic(fmt.Sprintf("tensor: %d values for shape %v", len(values), shape))
	}
	copy(t.data, values)
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i, counting negative indices from the
// end (Dim(-1) is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// Bytes returns the storage footprint in bytes (4 bytes per element),
// whether or not the tensor is concrete.
func (t *Tensor) Bytes() int64 { return int64(t.Size()) * 4 }

// Abstract reports whether the tensor carries no data.
func (t *Tensor) Abstract() bool { return t.data == nil }

// Data returns the backing slice. It is nil for abstract tensors.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.Offset(idx...)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.Offset(idx...)] = v
}

// Offset converts a multi-dimensional index to a flat offset.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy. Abstract tensors clone to abstract tensors.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: cloneInts(t.shape)}
	if t.data != nil {
		c.data = make([]float32, len(t.data))
		copy(c.data, t.data)
	}
	return c
}

// Reshape returns a tensor sharing this tensor's data with a new shape of
// identical element count. One dimension may be -1, in which case it is
// inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = cloneInts(shape)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: more than one inferred dimension")
			}
			infer = i
		case d <= 0:
			panic(fmt.Sprintf("tensor: bad dimension %d in reshape", d))
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if t.Size()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = t.Size() / known
		known *= shape[infer]
	}
	if known != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v. It is a no-op on abstract tensors.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0. It is a no-op on abstract tensors.
func (t *Tensor) Zero() { t.Fill(0) }

// AddScaled accumulates alpha*src into t element-wise. Both tensors must be
// concrete with identical sizes.
func (t *Tensor) AddScaled(src *Tensor, alpha float32) {
	if len(t.data) != len(src.data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range src.data {
		t.data[i] += alpha * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the maximum absolute element value (0 for abstract).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// String renders a compact description, eliding data for large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if t.Abstract() {
		b.WriteString("{abstract}")
		return b.String()
	}
	if t.Size() <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "{%d elements}", t.Size())
	}
	return b.String()
}

// ShapeString formats a shape like "3x224x224".
func ShapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}
