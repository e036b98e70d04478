//go:build !amd64 || noasm

package ops

// No vector activation or attention row bodies outside amd64, or under
// the noasm build tag: the scalar loops run every element. The stubs are
// never called.
const vecActivations = false

func geluAsm(dst, src *float32, n int64)    { panic("ops: vector activations unavailable") }
func sigmoidAsm(dst, src *float32, n int64) { panic("ops: vector activations unavailable") }
func tanhAsm(dst, src *float32, n int64)    { panic("ops: vector activations unavailable") }

func rowsMaxAsm(st *float32, ld, n16, rows int64, m *float32) {
	panic("ops: vector attention rows unavailable")
}
func rowsExpAsm(st *float32, ld, n16, rows int64, m *float32, l *float64) {
	panic("ops: vector attention rows unavailable")
}
func storeRowsAsm(dst *float32, ldd int64, src *float32, n, n16, rows int64, inv *float32, scale float32) {
	panic("ops: vector attention rows unavailable")
}

func vecBody(kernel func(dst, src *float32, n int64), dst, src []float32) int { return 0 }
