package gemm

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

// PackedB keeps the finished B panels of one constant right operand — a
// weight of a frozen network — so products against it stop re-packing
// it: one panel set per precision, packed on first use by the routine the
// per-call entry point runs — the f32 packer, and for f16 and i8 the
// finish of that layout — and handed to the same multiply routine, so
// every output bit is what F32/F16/I8 produce.
//
// A holder belongs to its operand and is collected with it; nothing in
// this package keeps one reachable. Its methods take the operand again
// on every call (only the first use per precision reads it) and have
// the package-level functions' signatures plus a store Epilogue; a nil
// *PackedB keeps nothing and is exactly those functions with that
// epilogue.
//
// Concurrent first uses race benignly: each packs a private heap buffer
// and one compare-and-swap publishes the winner; losers drop theirs. A
// pack that ran under a signalled cancellation flag (the engine skips
// its remaining chunks) or that panicked publishes nothing — the next
// call packs again — so a published panel is always a complete one.
type PackedB struct {
	f32 atomic.Pointer[panels[float32]]
	// f16 is f16 panel memory, in the layout f16Bits chooses.
	f16 atomic.Pointer[panels[float32]]
	i8  atomic.Pointer[panels[int8]]

	// built, when non-nil, is told the size of every panel set the
	// holder publishes (the model store charges it to the owner's entry).
	built func(bytes int64)
}

// panels is one published panel set and the operand geometry it was
// packed for.
type panels[T any] struct {
	k, n int
	bT   bool
	p    []T
	// scale is the int8 quantization scale the panels were packed at
	// (unused by the float layouts).
	scale float32
}

// size is the panel set's footprint in bytes (0 for an empty slot).
func (h *panels[T]) size() int64 {
	if h == nil {
		return 0
	}
	var zero T
	return int64(len(h.p)) * int64(unsafe.Sizeof(zero))
}

// NewPackedB returns an empty holder. built may be nil.
func NewPackedB(built func(bytes int64)) *PackedB { return &PackedB{built: built} }

// Bytes returns the size of the panel sets the holder has published,
// all precisions.
func (p *PackedB) Bytes() int64 {
	if p == nil {
		return 0
	}
	return p.f32.Load().size() + p.f16.Load().size() + p.i8.Load().size()
}

// keep returns slot's panels for B[k,n], packing and publishing them on
// first use. pack must fill its whole argument through e.
func keep[T any](p *PackedB, slot *atomic.Pointer[panels[T]], e *engine.Engine, k, n int, bT bool, scale float32, elems int, pack func(bp []T)) []T {
	if h := slot.Load(); h != nil {
		// The asm kernels index panels unchecked, so a holder reused for
		// another operand must stop here, not read out of bounds.
		if h.k != k || h.n != n || h.bT != bT || h.scale != scale {
			panic(fmt.Sprintf("gemm: PackedB holds panels of a %dx%d operand (bT=%v, scale %g), used for %dx%d (bT=%v, scale %g)",
				h.k, h.n, h.bT, h.scale, k, n, bT, scale))
		}
		return h.p
	}
	// Plain heap, not engine scratch: the panels outlive the call.
	bp := make([]T, elems)
	pack(bp)
	if e.CancelFlag().Cancelled() {
		// The flag is one-shot, so a clear flag now means every pack chunk
		// ran; a signalled one means some may have been skipped. The run
		// is aborting and its outputs are discarded — keep nothing.
		return bp
	}
	h := &panels[T]{k: k, n: n, bT: bT, p: bp, scale: scale}
	if !slot.CompareAndSwap(nil, h) {
		return slot.Load().p
	}
	if p.built != nil {
		p.built(h.size())
	}
	return bp
}

// F32 is the package-level F32 against the holder's kept f32 panels,
// followed by ep; a nil holder packs B into pooled scratch per call.
func (p *PackedB) F32(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool, ep Epilogue) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	var bp []float32
	if p == nil {
		bp = e.GetPanel(LenB(k, n))
		defer e.Put(bp)
		packBF32(e, bp, b, k, n, bT)
	} else {
		bp = keep(p, &p.f32, e, k, n, bT, 0, LenB(k, n), func(bp []float32) { packBF32(e, bp, b, k, n, bT) })
	}
	mulF32(e, dst, a, bp, m, k, n, alpha, aT, false, ep)
}

// F16 is the package-level F16 against the holder's kept f16 panels,
// followed by ep; a nil holder packs B into pooled scratch per call.
func (p *PackedB) F16(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool, ep Epilogue) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	var bp []float32
	if p == nil {
		bp = e.GetPanel(lenF16(k, n))
		defer e.Put(bp)
		packBLow(e, bp, b, k, n, bT, 0)
	} else {
		bp = keep(p, &p.f16, e, k, n, bT, 0, lenF16(k, n), func(bp []float32) { packBLow(e, bp, b, k, n, bT, 0) })
	}
	mulF32(e, dst, a, bp, m, k, n, alpha, aT, true, ep)
}

// I8Scale returns B's per-tensor int8 scale,
// precision.I8Scale(precision.MaxAbs(b)). A holder that has packed its
// int8 panels answers from them without scanning b; a nil holder scans
// every time.
func (p *PackedB) I8Scale(b []float32) float32 {
	if p != nil {
		if h := p.i8.Load(); h != nil {
			return h.scale
		}
	}
	return precision.I8Scale(precision.MaxAbs(b))
}

// I8 is the package-level I8 against the holder's kept int8 panels,
// followed by ep; a nil holder packs B into pooled scratch per call. sb
// must be p.I8Scale(b): kept panels are quantized at it.
func (p *PackedB) I8(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha, sa, sb float32, aT, bT bool, ep Epilogue) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	var bp []int8
	if elems := panelsB(n) * pairsI8(k) * 2 * NR; p == nil {
		mem := e.GetPanel(elems / 4) // elems is a multiple of 2·NR int8
		defer e.Put(mem)
		bp = view[int8](mem)
		packBLow(e, bp, b, k, n, bT, 1/sb)
	} else {
		bp = keep(p, &p.i8, e, k, n, bT, sb, elems, func(bp []int8) { packBLow(e, bp, b, k, n, bT, 1/sb) })
	}
	mulI8(e, dst, a, bp, m, k, n, alpha, sa, sb, aT, ep)
}
