//go:build amd64 && !noasm

package gemm

import "testing"

// tileStoreGoToo reruns checkTileStore with the assembly switched off, so
// the Go loops store the full-width tiles as well (a noasm or non-amd64
// build runs them alone, and has no switch).
func tileStoreGoToo(t *testing.T) {
	if !asmKernels {
		return
	}
	asmKernels = false
	defer func() { asmKernels = true }()
	t.Run("go", checkTileStore)
}
