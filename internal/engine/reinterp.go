package engine

import "unsafe"

// Typed views of the float32 buffer pool for the packed-GEMM panels:
// int8 (quantized B panels) and int16 (widened quantized A panels); the
// float16 B panels live in float32 memory, two to a float. Each Get
// reinterprets one pooled float32 buffer in place — no second pool, no
// copy — so the retention budget, poison mode and hit counters all keep
// covering panel scratch, and each checkout counts in Stats().Pack at its
// panel's byte size.
//
// Ownership rules match Get/Put: the caller owns the returned slice
// until the matching Put*, and must pass back exactly the slice a Get*
// returned (its capacity spans the whole underlying bucket, which is
// how Put* recovers the float32 buffer). Every bucket capacity is a
// power of two ≥ 256 floats, so the byte capacity is always divisible
// by the element size of every view.

// GetPanelI8 returns an uninitialized pooled panel of n int8. Return it
// with PutI8.
func (e *Engine) GetPanelI8(n int) []int8 {
	buf := e.panel((n+3)/4, int64(n))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&buf[0])), cap(buf)*4)[:n]
}

// PutI8 returns a GetPanelI8 slice to the pool.
func (e *Engine) PutI8(buf []int8) {
	if e == nil || buf == nil {
		return
	}
	e.Put(unsafe.Slice((*float32)(unsafe.Pointer(&buf[0])), cap(buf)/4))
}

// GetPanelI16 returns an uninitialized pooled panel of n int16. Return
// it with PutI16.
func (e *Engine) GetPanelI16(n int) []int16 {
	buf := e.panel((n+1)/2, int64(n)*2)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&buf[0])), cap(buf)*2)[:n]
}

// PutI16 returns a GetPanelI16 slice to the pool.
func (e *Engine) PutI16(buf []int16) {
	if e == nil || buf == nil {
		return
	}
	e.Put(unsafe.Slice((*float32)(unsafe.Pointer(&buf[0])), cap(buf)/2))
}
