//go:build !amd64 || noasm

package ops

// No vector activation bodies outside amd64, or under the noasm build
// tag: the scalar loops run every element. The stubs are never called.
const vecActivations = false

func geluAsm(dst, src *float32, n int64)    { panic("ops: vector activations unavailable") }
func sigmoidAsm(dst, src *float32, n int64) { panic("ops: vector activations unavailable") }
func tanhAsm(dst, src *float32, n int64)    { panic("ops: vector activations unavailable") }

func vecBody(kernel func(dst, src *float32, n int64), dst, src []float32) int { return 0 }
