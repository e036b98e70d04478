//go:build !amd64 || noasm

package gemm

import "testing"

// tileStoreGoToo has nothing to add where the Go loops are the only store.
func tileStoreGoToo(*testing.T) {}
