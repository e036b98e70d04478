//go:build !amd64 || noasm

package tensor

// No vector fill bodies outside amd64, or under the noasm build tag: the
// Go loops draw every element and refill every block. vecFills is never
// set here; it is a variable only because the tests that switch the
// vector bodies off assign it.
var vecFills = false

func uniformVec(out []float32, w []uint64, lo, hi float32) int { return 0 }

func normalVec(out []float32, w []uint64, mean, std float32) (words, stored int) { return 0, 0 }

func refillAsm(w *[rngLen]uint64) { panic("tensor: vector refill unavailable") }
