//go:build !amd64 || noasm

package precision

// No vector float16 bodies outside amd64, or under the noasm build tag:
// the Go loops convert every element.
func roundF16Vec(dst, src []float32) int         { return 0 }
func f16BitsVec(dst []uint16, src []float32) int { return 0 }
