package ops

import "mmbench/internal/precision"

// segment is one request's half-open span [lo, hi) along a merged
// tensor's leading dimension, in units of that dimension — not samples.
type segment struct{ lo, hi int }

// segments maps the context's per-request sample counts onto a tensor
// whose leading dimension is dim0: the spans an operator with
// cross-batch numerics computes its statistics over, one at a time. A
// merged batch (two or more segments) whose dim0 is an exact per-sample
// multiple k = dim0/total of the total sample count gets one span per
// request; k handles tensors whose leading dimension is batch-major but
// scaled, e.g. [B·T, D] rows in Linear. Anything else is the single span
// [0, dim0): a lone request, a weight-shaped dim0 (weights carry no
// cross-request state) and dim0 == 0. segments and i8Segments stay small
// enough to inline, so a lone request's one-span slice lives on the
// caller's stack (TestLoneSegmentsDoNotAllocate); the general case is
// requestSegments.
func (c *Ctx) segments(dim0 int) []segment {
	if len(c.Segments) < 2 {
		return []segment{{0, dim0}}
	}
	return c.requestSegments(dim0)
}

// requestSegments is segments for a context with two or more segments:
// one span per request when dim0 is a per-sample multiple, else the whole
// span.
func (c *Ctx) requestSegments(dim0 int) []segment {
	total := 0
	for _, s := range c.Segments {
		if s <= 0 {
			return []segment{{0, dim0}}
		}
		total += s
	}
	if dim0 <= 0 || dim0%total != 0 {
		return []segment{{0, dim0}}
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

// i8Segments is segments(dim0) when the active precision is int8 — the
// one storage precision whose quantization scale is a per-tensor (hence
// cross-request) statistic — and the whole span [0, dim0) otherwise:
// f16 rounding is element-wise and f32 is exact, so both are bitwise
// batch-invariant without segmentation.
func (c *Ctx) i8Segments(dim0 int) []segment {
	if c.prec != precision.I8 || len(c.Segments) < 2 {
		return []segment{{0, dim0}}
	}
	return c.requestSegments(dim0)
}
