//go:build !amd64 || noasm

package tensor

// No vector fill bodies outside amd64, or under the noasm build tag: the
// Go loops draw every element and refill every block. vecFills is never
// set here; it is a variable only because the tests that switch the
// vector bodies off assign it.
var vecFills = false

func fillVec(body func(dst *float32, src *uint64, n int64, a, b float32) int64, out []float32, w []uint64, a, b float32) int {
	return 0
}

// The vector bodies are never called here; the stubs satisfy their
// callers in rng.go.
func uniformAsm(dst *float32, src *uint64, n int64, lo, hi float32) int64 {
	panic("tensor: vector fills unavailable")
}

func normalAsm(dst *float32, src *uint64, n int64, mean, std float32) int64 {
	panic("tensor: vector fills unavailable")
}

func refillAsm(w *[rngLen]uint64) { panic("tensor: vector refill unavailable") }
