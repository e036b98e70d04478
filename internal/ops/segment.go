package ops

import "mmbench/internal/precision"

// segment is one request's half-open span [lo, hi) along a merged
// tensor's leading dimension, in units of that dimension — not samples.
type segment struct{ lo, hi int }

// segments maps the context's per-request sample counts onto a tensor
// whose leading dimension is dim0. It returns nil — meaning "treat the
// tensor as one span" — unless the forward is a merged batch (two or
// more segments) and dim0 is an exact per-sample multiple of the total
// sample count. The multiple k = dim0/total handles tensors whose
// leading dimension is batch-major but scaled, e.g. [B·T, D] rows in
// Linear; weights and other non-batch tensors essentially never divide evenly and fall through to
// the unsegmented path, which is correct because their values carry no
// cross-request state.
func (c *Ctx) segments(dim0 int) []segment {
	if len(c.Segments) < 2 || dim0 <= 0 {
		return nil
	}
	total := 0
	for _, s := range c.Segments {
		if s <= 0 {
			return nil
		}
		total += s
	}
	if total <= 0 || dim0%total != 0 {
		return nil
	}
	k := dim0 / total
	out := make([]segment, len(c.Segments))
	lo := 0
	for i, s := range c.Segments {
		hi := lo + s*k
		out[i] = segment{lo: lo, hi: hi}
		lo = hi
	}
	return out
}

// i8Segments returns segments(dim0) only when the active precision is
// int8 — the one storage precision whose quantization scale is a
// per-tensor (hence cross-request) statistic. f16 rounding is
// element-wise and f32 is exact, so both are bitwise batch-invariant
// without segmentation.
func (c *Ctx) i8Segments(dim0 int) []segment {
	if c.prec != precision.I8 {
		return nil
	}
	return c.segments(dim0)
}

// eachI8Segment runs fn once per request segment of a merged int8 batch,
// or once over the whole [0, dim0) span when i8Segments says the tensor
// needs no segmentation.
func (c *Ctx) eachI8Segment(dim0 int, fn func(lo, hi int)) {
	segs := c.i8Segments(dim0)
	if segs == nil {
		fn(0, dim0)
		return
	}
	for _, s := range segs {
		fn(s.lo, s.hi)
	}
}
