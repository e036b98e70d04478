package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The fills' parameters in the stream tests: away from 0 and 1 so a
// misplaced scale or offset shows in the bits.
const (
	uniLo, uniHi     = float32(-0.375), float32(1.25)
	normMean, normSD = float32(0.5), float32(2.0)
)

// uniformOracle and normalOracle are the element formulas of the fills,
// drawn one call at a time from math/rand.
func uniformOracle(o *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = uniLo + (uniHi-uniLo)*o.Float32()
	}
	return out
}

func normalOracle(o *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = normMean + normSD*float32(o.NormFloat64())
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, math/rand gives %v", what, i, got[i], want[i])
		}
	}
}

// fillTarget returns a tensor of n elements; for n = 0, an abstract
// tensor, which a fill must leave without drawing.
func fillTarget(n int) *Tensor {
	if n == 0 {
		return NewAbstract(1)
	}
	return New(n)
}

// FuzzRNGStream runs a byte-driven sequence of RNG calls beside the same
// calls on rand.New(rand.NewSource(seed)) and requires every value to be
// math/rand's, bit for bit. Fill lengths reach 3×607, so runs cross block
// refills at every offset; Split moves both sides to the child.
func FuzzRNGStream(f *testing.F) {
	const maxOps = 32 // bounds an input's cost, so minimising one stays quick
	prog := func(ops ...uint16) []byte {
		var b []byte
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint16(b, op)
		}
		return b
	}
	f.Add(int64(0), prog())
	f.Add(int64(7), prog(1821<<3|0, 1821<<3|1, 1<<3|2, 5<<3|7, 606<<3|0, 2<<3|3))
	f.Add(int64(-1), prog(600<<3|1, 9<<3|4, 40<<3|5, 3<<3|6, 1215<<3|0, 1<<3|7, 1000<<3|1))
	f.Add(int64(89482311), prog(607<<3|0, 607<<3|1, 0<<3|7, 1<<3|1))
	f.Add(int64(math.MinInt64), prog(8191<<3|4, 64<<3|5, 1821<<3|1, 1<<3|0))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g, o := NewRNG(seed), rand.New(rand.NewSource(seed))
		ops = ops[:min(len(ops), 2*maxOps)]
		for step := 0; len(ops) >= 2; step++ {
			op := binary.LittleEndian.Uint16(ops)
			ops = ops[2:]
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				x := fillTarget(arg % (3*rngLen + 1))
				g.Uniform(x, uniLo, uniHi)
				sameBits(t, "Uniform", x.Data(), uniformOracle(o, len(x.Data())))
			case 1:
				x := fillTarget(arg % (3*rngLen + 1))
				g.Normal(x, normMean, normSD)
				sameBits(t, "Normal", x.Data(), normalOracle(o, len(x.Data())))
			case 2:
				sameBits(t, "Float32", []float32{g.Float32()}, []float32{o.Float32()})
			case 3:
				if a, b := g.Float64(), o.Float64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("step %d: Float64 = %v, math/rand gives %v", step, a, b)
				}
			case 4:
				n := 1 + arg
				if arg&1 == 1 {
					n += 1 << 40 // Intn's 63-bit branch
				}
				if a, b := g.Intn(n), o.Intn(n); a != b {
					t.Fatalf("step %d: Intn(%d) = %d, math/rand gives %d", step, n, a, b)
				}
			case 5:
				a, b := g.Perm(arg%64), o.Perm(arg%64)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("step %d: Perm = %v, math/rand gives %v", step, a, b)
					}
				}
			case 6:
				if a, b := g.Norm(), o.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("step %d: Norm = %v, math/rand gives %v", step, a, b)
				}
			case 7:
				const golden = 0x9e3779b97f4a7c15
				g = g.Split(int64(arg))
				o = rand.New(rand.NewSource(o.Int63() ^ int64(uint64(arg)*golden)))
			}
		}
		sameBits(t, "Uniform after the program", func() []float32 {
			x := New(rngLen + 1)
			g.Uniform(x, uniLo, uniHi)
			return x.Data()
		}(), uniformOracle(o, rngLen+1))
	})
}

// wordSource replays fixed words as a rand.Source64 and counts the words
// math/rand draws.
type wordSource struct {
	words []uint64
	n     int
}

func (s *wordSource) Uint64() uint64 { w := s.words[s.n]; s.n++; return w }
func (s *wordSource) Int63() int64   { return int64(s.Uint64() & rngMask) }
func (s *wordSource) Seed(int64)     { panic("wordSource: Seed") }

// crafted returns an RNG whose block starts with words, and math/rand
// over the same words.
func crafted(words []uint64) (*RNG, *rand.Rand, *wordSource) {
	g := &RNG{}
	copy(g.s.words[:], words)
	g.r = rand.New(&g.s)
	src := &wordSource{words: words}
	return g, rand.New(src), src
}

// unitWord is the word whose Float64 is u (u a multiple of 2⁻⁶³); the
// high bit, which Int63 drops, is set so a missed mask shows.
func unitWord(u float64) uint64 { return 1<<63 | uint64(u*(1<<63)) }

// zigWord is the word whose Uint32, as NormFloat64 reads it, is j.
func zigWord(j int32) uint64 { return 1<<63 | uint64(uint32(j))<<31 }

const (
	f64One = uint64(1<<63 - 1)     // Float64 rounds to 1: redrawn
	f32One = uint64(1<<63 - 1<<38) // Float64 1−2⁻²⁵, Float32 rounds to 1: redrawn
)

// TestRNGRareBranches pins the fills on the words a random stream meets
// about once in 2²⁵ draws (Float32 rounding to 1) and on each branch of
// the ziggurat off its fast path. Each case's word count in math/rand
// proves the words take the branch named.
func TestRNGRareBranches(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		if float64(int64(f64One&rngMask))/(1<<63) != 1 || float64(int64(f32One&rngMask))/(1<<63) == 1 ||
			float32(float64(int64(f32One&rngMask))/(1<<63)) != 1 {
			t.Fatal("crafted words do not round as intended")
		}
		words := []uint64{unitWord(0.25), f64One, unitWord(0.5), f32One, f32One, unitWord(0.75), f64One}
		words = append(words, unitWord(0.125)) // the last element's redraw
		g, o, src := crafted(words)
		x := New(4)
		g.Uniform(x, uniLo, uniHi)
		sameBits(t, "Uniform", x.Data(), uniformOracle(o, 4))
		if src.n != len(words) || g.s.pos != len(words) {
			t.Fatalf("drew %d words, math/rand %d, want %d", g.s.pos, src.n, len(words))
		}
	})
	t.Run("normal", func(t *testing.T) {
		cases := []struct {
			name  string
			words []uint64
		}{
			{"fast path", []uint64{zigWord(5 | 1000<<7)}},
			{"base strip, positive", []uint64{zigWord(0x7F000000), unitWord(0.5), unitWord(0.5)}},
			{"base strip, negative, one retry", []uint64{zigWord(-0x7F000000), unitWord(0x1p-20), unitWord(0.5), unitWord(0.5), unitWord(0.5)}},
			{"wedge rejection, then fast path", []uint64{zigWord(0x7FFFFF81), unitWord(0.984375), zigWord(3)}},
			{"wedge boundary, which rejects", []uint64{zigWord(0x7FFFFF81), unitWord(0), zigWord(3)}},
			{"wedge acceptance", []uint64{zigWord(0x81), unitWord(0)}},
			{"base strip, a Float64 of 1 redrawn", []uint64{zigWord(0x7F000000), f64One, unitWord(0.5), unitWord(0.5)}},
			{"most negative word", []uint64{zigWord(math.MinInt32), unitWord(0.5), unitWord(0.5)}},
			{"|j| = kn[i], positive", []uint64{zigWord(int32(kn[117])), unitWord(0)}},
			{"|j| = kn[i], negative", []uint64{zigWord(-int32(kn[20])), unitWord(0)}},
		}
		var words []uint64
		for _, c := range cases {
			_, o, src := crafted(c.words)
			o.NormFloat64()
			if src.n != len(c.words) {
				t.Fatalf("%s: math/rand drew %d words, want %d", c.name, src.n, len(c.words))
			}
			words = append(words, c.words...)
		}
		g, o, src := crafted(words)
		x := New(len(cases))
		g.Normal(x, normMean, normSD)
		sameBits(t, "Normal", x.Data(), normalOracle(o, len(cases)))
		if src.n != len(words) || g.s.pos != len(words) {
			t.Fatalf("drew %d words, math/rand %d, want %d", g.s.pos, src.n, len(words))
		}
	})
}

// TestRNGSeedReduction pins the seed arithmetic of math/rand that NewRNG
// inherits: seeds are reduced modulo 2³¹−1 and 0 stands for 89482311.
func TestRNGSeedReduction(t *testing.T) {
	draw := func(seed int64) [4]float64 {
		g := NewRNG(seed)
		return [4]float64{g.Float64(), g.Float64(), g.Float64(), g.Float64()}
	}
	for _, pair := range [][2]int64{{5, 5 + math.MaxInt32}, {0, 89482311}, {-1, math.MaxInt32 - 1}} {
		if draw(pair[0]) != draw(pair[1]) {
			t.Errorf("seeds %d and %d give different streams", pair[0], pair[1])
		}
	}
	if draw(5) == draw(6) {
		t.Error("seeds 5 and 6 give one stream")
	}
}

// TestRNGSplitFollowsParentDraws pins that a child depends on the
// parent's earlier draws: Split draws from the parent.
func TestRNGSplitFollowsParentDraws(t *testing.T) {
	fresh := NewRNG(7).Split(1)
	drawn := NewRNG(7)
	drawn.Float64()
	if fresh.Float64() == drawn.Split(1).Float64() {
		t.Fatal("a draw before Split left the child's stream unchanged")
	}
	a, b := NewRNG(7), NewRNG(7)
	if a.Split(1).Float64() == b.Split(2).Float64() {
		t.Fatal("labels 1 and 2 split at one point give one stream")
	}
}

const benchFloats = 1 << 20

func BenchmarkRNGUniform(b *testing.B) {
	g, x := NewRNG(1), New(benchFloats)
	b.SetBytes(4 * benchFloats)
	for b.Loop() {
		g.Uniform(x, -1, 1)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	g, x := NewRNG(1), New(benchFloats)
	b.SetBytes(4 * benchFloats)
	for b.Loop() {
		g.Normal(x, 0, 1)
	}
}
