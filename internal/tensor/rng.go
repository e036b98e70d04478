package tensor

import (
	"math"
	"math/rand"
	"sync"
)

// RNG is a seeded random source for deterministic experiments. All MMBench
// randomness (weight init, synthetic data, sampling) flows through an RNG so
// every experiment is reproducible from a single seed.
//
// An RNG produces math/rand's value stream: every method returns, bit for
// bit, what the same call on rand.New(rand.NewSource(seed)) would return
// after the same earlier calls. The fills (Uniform, Normal and the
// initialisers over them) convert whole runs of that stream a block at a
// time, sixteen words a step on an AVX-512 host (fill_amd64.s, with the
// Go loops' bits); the scalar methods run through a rand.Rand over the
// same block.
type RNG struct {
	s stream
	r *rand.Rand // over &s
}

// NewRNG returns a deterministic generator for the given seed.
//
// math/rand reduces the seed modulo 2³¹−1 and maps 0 to 89482311, so
// seeds that agree modulo 2³¹−1 (5 and 5+2³¹−1) give one stream, and so
// do 0 and 89482311.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.s.Seed(seed)
	g.r = rand.New(&g.s)
	return g
}

// Split derives a child generator for label: it draws one Int63 from g and
// seeds the child with it xor a multiple of label. The child therefore
// depends on every draw g made before the split, so a draw added ahead of
// a Split changes the child's stream.
func (g *RNG) Split(label int64) *RNG {
	const golden = 0x9e3779b97f4a7c15
	mixed := int64(uint64(label) * uint64(golden))
	return NewRNG(g.r.Int63() ^ mixed)
}

// Float32 returns a uniform value in [0,1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Norm returns a standard normal sample.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform fills t with uniform samples in [lo,hi). Each element is
// lo + (hi-lo)*Float32(), converted from the block with Float32's
// formula; a word that rounds to 1 is left to rand.Rand, which redraws.
func (g *RNG) Uniform(t *Tensor, lo, hi float32) {
	d := t.data
	for len(d) > 0 {
		w := g.s.unread()
		n := min(len(d), len(w))
		w, out := w[:n], d[:n]
		k := uniformVec(out, w, lo, hi)
		for ; k < n; k++ {
			f := float32(float64(int64(w[k]&rngMask)) / (1 << 63))
			if f == 1 {
				break
			}
			out[k] = lo + (hi-lo)*f
		}
		g.s.pos += k
		d = d[k:]
		if k < n {
			d[0] = lo + (hi-lo)*g.r.Float32()
			d = d[1:]
		}
	}
}

// Normal fills t with N(mean, std) samples. Each element is
// mean + std*Norm(): the block runs NormFloat64's ziggurat fast path, and
// a word that leaves it (about 2.8 % of them) is left to rand.Rand, which
// reads it again and takes the base strip or the wedge. On an AVX-512
// host the vector body settles most wedges itself (normalAsm) and
// consumes their uniforms, so it counts words and elements apart.
func (g *RNG) Normal(t *Tensor, mean, std float32) {
	d := t.data
	for len(d) > 0 {
		w := g.s.unread()
		c, k := normalVec(d, w, mean, std)
		g.s.pos += c
		w, d = w[c:], d[k:]
		n := min(len(d), len(w))
		for k = 0; k < n; k++ {
			j := int32(w[k] >> 31) // rand.Rand's Uint32, as NormFloat64 reads it
			i := j & 0x7F
			if absInt32(j) >= kn[i] {
				break
			}
			d[k] = mean + std*float32(float64(j)*float64(wn[i]))
		}
		g.s.pos += k
		d = d[k:]
		if k < n {
			d[0] = mean + std*float32(g.r.NormFloat64())
			d = d[1:]
		}
	}
}

// XavierUniform fills t using Glorot/Xavier uniform initialization for a
// layer with the given fan-in and fan-out.
func (g *RNG) XavierUniform(t *Tensor, fanIn, fanOut int) {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	g.Uniform(t, -limit, limit)
}

// KaimingNormal fills t using He initialization for ReLU networks with the
// given fan-in.
func (g *RNG) KaimingNormal(t *Tensor, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	g.Normal(t, 0, std)
}

const (
	rngLen  = 607 // math/rand's lags: out[n] = out[n-607] + out[n-273]
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// stream is math/rand's additive lagged Fibonacci generator held as a
// block of 607 consecutive outputs, out[n] = out[n-607] + out[n-273]
// (mod 2⁶⁴). words[pos:] are the outputs not yet drawn; refill replaces
// the block with the next 607 in place. It is the rand.Source64 under an
// RNG's rand.Rand.
type stream struct {
	words [rngLen]uint64
	pos   int
}

// seeders recycles the math/rand sources that seed streams, so a seeded
// stream holds its block and no second generator state.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// Seed sets s to the start of math/rand's stream for seed: the first 607
// outputs of a source seeded as rand.NewSource seeds it.
func (s *stream) Seed(seed int64) {
	src := seeders.Get().(rand.Source64)
	src.Seed(seed)
	for i := range s.words {
		s.words[i] = src.Uint64()
	}
	seeders.Put(src)
	s.pos = 0
}

func (s *stream) refill() {
	w := &s.words
	if vecFills {
		refillAsm(w)
	} else {
		for k := 0; k < rngTap; k++ {
			w[k] += w[k+rngLen-rngTap]
		}
		for k := rngTap; k < rngLen; k++ {
			w[k] += w[k-rngTap]
		}
	}
	s.pos = 0
}

// unread returns the words not yet drawn, refilling a spent block first;
// it is never empty. The caller advances pos past what it consumes.
func (s *stream) unread() []uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	return s.words[s.pos:]
}

func (s *stream) Uint64() uint64 {
	w := s.unread()[0]
	s.pos++
	return w
}

func (s *stream) Int63() int64 { return int64(s.Uint64() & rngMask) }
