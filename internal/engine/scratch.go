package engine

// Scratch is a checkout of several pooled buffers that are released
// together. The fused attention kernel — a Scratch's one user, so every
// checkout counts as attention scratch in Stats().Attention — draws each
// parallel chunk's family of tiles (score tile, panels, accumulator)
// through one Scratch and returns them all with a single Release, instead
// of pairing every Get with its own Put.
//
// A Scratch is owned by one goroutine; the underlying pool is shared
// and locked, so concurrent chunks may each hold their own Scratch.
// The usual pool ownership rules apply: after Release none of the
// checked-out slices may be touched again.
type Scratch struct {
	e    *Engine
	bufs [][]float32
	// arr backs bufs for the common ≤4-buffer case so a checkout does
	// not allocate a slice header array per parallel chunk.
	arr [4][]float32
}

// NewScratch starts a buffer checkout on this engine's pool. A nil
// engine is valid: buffers are plainly allocated and Release is a no-op.
func (e *Engine) NewScratch() *Scratch {
	s := &Scratch{e: e}
	s.bufs = s.arr[:0]
	return s
}

// GetUninit returns an uninitialized scratch slice of length n, tracked
// for Release. The caller must overwrite every element before reading
// any (see Engine.GetUninit).
func (s *Scratch) GetUninit(n int) []float32 {
	if a := s.e.act(); a != nil {
		a.attnCheckouts.Add(1)
		a.attnBytes.Add(int64(n) * 4)
	}
	buf := s.e.GetUninit(n)
	s.bufs = append(s.bufs, buf)
	return buf
}

// Release returns every checked-out buffer to the pool. The Scratch may
// be reused for a fresh checkout afterwards.
func (s *Scratch) Release() {
	for i, buf := range s.bufs {
		s.e.Put(buf)
		s.bufs[i] = nil
	}
	s.bufs = s.bufs[:0]
}
