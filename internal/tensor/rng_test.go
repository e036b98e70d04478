package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fills' parameters in the stream tests: away from 0 and 1 so a
// misplaced scale or offset shows in the bits, and with products that
// round, so a fused multiply-add shows too.
const (
	uniLo, uniHi     = float32(-0.375), float32(1.25)
	normMean, normSD = float32(0.5), float32(1.3)
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

// vecHost is the init probe's choice of fill path, which the tests that
// switch it restore.
var vecHost = vecFills

// eachFillPath runs f on the Go loops and then, where this host selects
// them, on the vector bodies, and leaves vecFills as the probe set it.
func eachFillPath(f func(path string)) {
	defer func() { vecFills = vecHost }()
	vecFills = false
	f("Go loops")
	if vecHost {
		vecFills = true
		f("vector bodies")
	}
}

// FuzzRNGStream runs a byte-driven sequence of RNG calls beside the same
// calls on rand.New(rand.NewSource(seed)) and requires every value to be
// math/rand's, bit for bit, on the Go loops and on the vector bodies.
// Fill lengths reach 3×607, so runs cross block refills at every offset;
// Split moves both sides to the child.
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
		ops = ops[:min(len(ops), 2*maxOps)]
		eachFillPath(func(path string) { runRNGProgram(t, path, seed, ops) })
	})
}

// runRNGProgram is one FuzzRNGStream input on the selected fill path.
func runRNGProgram(t *testing.T, path string, seed int64, ops []byte) {
	g, o := NewRNG(seed), rand.New(rand.NewSource(seed))
	for step := 0; len(ops) >= 2; step++ {
		op := binary.LittleEndian.Uint16(ops)
		ops = ops[2:]
		arg := int(op >> 3)
		switch op & 7 {
		case 0:
			x := fillTarget(arg % (3*rngLen + 1))
			g.Uniform(x, uniLo, uniHi)
			sameBits(t, path+": Uniform", x.Data(), uniformOracle(o, len(x.Data())))
		case 1:
			x := fillTarget(arg % (3*rngLen + 1))
			g.Normal(x, normMean, normSD)
			sameBits(t, path+": Normal", x.Data(), normalOracle(o, len(x.Data())))
		case 2:
			sameBits(t, path+": Float32", []float32{g.Float32()}, []float32{o.Float32()})
		case 3:
			if a, b := g.Float64(), o.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s, step %d: Float64 = %v, math/rand gives %v", path, step, a, b)
			}
		case 4:
			n := 1 + arg
			if arg&1 == 1 {
				n += 1 << 40 // Intn's 63-bit branch
			}
			if a, b := g.Intn(n), o.Intn(n); a != b {
				t.Fatalf("%s, step %d: Intn(%d) = %d, math/rand gives %d", path, step, n, a, b)
			}
		case 5:
			a, b := g.Perm(arg%64), o.Perm(arg%64)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s, step %d: Perm = %v, math/rand gives %v", path, step, a, b)
				}
			}
		case 6:
			if a, b := g.Norm(), o.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s, step %d: Norm = %v, math/rand gives %v", path, step, a, b)
			}
		case 7:
			const golden = 0x9e3779b97f4a7c15
			g = g.Split(int64(arg))
			o = rand.New(rand.NewSource(o.Int63() ^ int64(uint64(arg)*golden)))
		}
	}
	x := New(rngLen + 1)
	g.Uniform(x, uniLo, uniHi)
	sameBits(t, path+": Uniform after the program", x.Data(), uniformOracle(o, rngLen+1))
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

// normalRare are the words NormFloat64 meets off its fast path, each
// case the whole sequence of words it draws for one sample.
var normalRare = []struct {
	name  string
	words []uint64
}{
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

// uniformRare are the words Float32 redraws.
var uniformRare = []struct {
	name  string
	words []uint64
}{
	{"Float32 rounds to 1", []uint64{f32One}},
	{"Float64 is 1", []uint64{f64One}},
}

// TestRNGRareBranches pins the fills on the words a random stream meets
// about once in 2²⁵ draws (Float32 rounding to 1) and on each branch of
// the ziggurat off its fast path, on both fill paths (these fills are
// shorter than a vector; "lanes" puts the words in every lane of one).
// Each case's word count in math/rand proves the words take the branch
// named.
func TestRNGRareBranches(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		if float64(int64(f64One&rngMask))/(1<<63) != 1 || float64(int64(f32One&rngMask))/(1<<63) == 1 ||
			float32(float64(int64(f32One&rngMask))/(1<<63)) != 1 {
			t.Fatal("crafted words do not round as intended")
		}
		words := []uint64{unitWord(0.25), f64One, unitWord(0.5), f32One, f32One, unitWord(0.75), f64One}
		words = append(words, unitWord(0.125)) // the last element's redraw
		eachFillPath(func(path string) {
			g, o, src := crafted(words)
			x := New(4)
			g.Uniform(x, uniLo, uniHi)
			sameBits(t, path+": Uniform", x.Data(), uniformOracle(o, 4))
			if src.n != len(words) || g.s.pos != len(words) {
				t.Fatalf("%s: drew %d words, math/rand %d, want %d", path, g.s.pos, src.n, len(words))
			}
		})
	})
	t.Run("normal", func(t *testing.T) {
		words := []uint64{zigWord(5 | 1000<<7)} // the fast path
		for _, c := range normalRare {
			_, o, src := crafted(c.words)
			o.NormFloat64()
			if src.n != len(c.words) {
				t.Fatalf("%s: math/rand drew %d words, want %d", c.name, src.n, len(c.words))
			}
			words = append(words, c.words...)
		}
		n := 1 + len(normalRare)
		eachFillPath(func(path string) {
			g, o, src := crafted(words)
			x := New(n)
			g.Normal(x, normMean, normSD)
			sameBits(t, path+": Normal", x.Data(), normalOracle(o, n))
			if src.n != len(words) || g.s.pos != len(words) {
				t.Fatalf("%s: drew %d words, math/rand %d, want %d", path, g.s.pos, src.n, len(words))
			}
		})
	})
	t.Run("lanes", rareLanes)
}

// fillKind is one of the two fills, with its oracle and its vector body.
type fillKind struct {
	name   string
	fill   func(g *RNG, x *Tensor)
	oracle func(o *rand.Rand, n int) []float32
	vec    func(out []float32, w []uint64) int
	rare   []struct {
		name  string
		words []uint64
	}
	fast func(w uint64) bool // whether w stays on the fill's fast path
}

var fillKinds = []fillKind{
	{
		name:   "Uniform",
		fill:   func(g *RNG, x *Tensor) { g.Uniform(x, uniLo, uniHi) },
		oracle: uniformOracle,
		vec:    func(out []float32, w []uint64) int { return fillVec(uniformAsm, out, w, uniLo, uniHi) },
		rare:   uniformRare,
		fast:   func(w uint64) bool { return float32(float64(int64(w&rngMask))/(1<<63)) != 1 },
	},
	{
		name:   "Normal",
		fill:   func(g *RNG, x *Tensor) { g.Normal(x, normMean, normSD) },
		oracle: normalOracle,
		vec:    func(out []float32, w []uint64) int { return fillVec(normalAsm, out, w, normMean, normSD) },
		rare:   normalRare,
		fast:   func(w uint64) bool { j := int32(w >> 31); return absInt32(j) < kn[j&0x7F] },
	},
}

// ordinaryBlock returns a block of random words that stay on kind's fast
// path, all 64 bits drawn.
func ordinaryBlock(kind fillKind, seed int64) [rngLen]uint64 {
	r := rand.New(rand.NewSource(seed))
	var b [rngLen]uint64
	for i := range b {
		for b[i] = r.Uint64(); !kind.fast(b[i]); b[i] = r.Uint64() {
		}
	}
	return b
}

// craftedAt returns an RNG over block with pos at start, and math/rand
// over the same stream from start: the block and the blocks math/rand's
// recurrence, out[n] = out[n−607] + out[n−273], gives after it.
func craftedAt(block [rngLen]uint64, start int) (*RNG, *rand.Rand, *wordSource) {
	g := &RNG{}
	g.s.words = block
	g.s.pos = start
	g.r = rand.New(&g.s)
	out := append(make([]uint64, 0, 4*rngLen), block[:]...)
	for n := rngLen; n < 4*rngLen; n++ {
		out = append(out, out[n-rngLen]+out[n-rngTap])
	}
	src := &wordSource{words: out[start:]}
	return g, rand.New(src), src
}

// rareLanes, TestRNGRareBranches' "lanes", puts each rare word of each
// fill in every lane of two vectors (also as a fill's last element) and
// at the last word of a block, on both fill paths; then fills every
// length 0…33 starting at every pos mod 16 (the vector bodies' width),
// in and across a block's end. Every value must be math/rand's and every
// fill must draw math/rand's words. On the vector bodies, a body must
// stop at the rare word's lane, store the lanes before it and leave the
// rest of its output alone.
func rareLanes(t *testing.T) {
	const width = 16
	if !vecHost {
		t.Log("this host does not select the vector fill bodies: the Go loops alone are checked")
	}
	eachFillPath(func(path string) {
		for ki, kind := range fillKinds {
			ordinary := ordinaryBlock(kind, int64(ki+1))
			check := func(what string, block [rngLen]uint64, start, n int) {
				t.Helper()
				g, o, src := craftedAt(block, start)
				x := fillTarget(n)
				kind.fill(g, x)
				sameBits(t, path+": "+what, x.Data(), kind.oracle(o, len(x.Data())))
				got := g.s.pos - start // words drawn, none past one refill
				if start+src.n > rngLen {
					got += rngLen
				}
				if got != src.n {
					t.Fatalf("%s: %s drew %d words, math/rand %d", path, what, got, src.n)
				}
			}
			for _, c := range kind.rare {
				for lane := 0; lane < 2*width; lane++ {
					block := ordinary
					copy(block[lane:], c.words)
					what := fmt.Sprintf("%s, %s at lane %d", kind.name, c.name, lane)
					check(what, block, 0, 3*width)
					check(what+" as the last element", block, 0, lane+1)
					if vecFills && lane < width {
						stopsAtLane(t, kind, what, block[:], lane)
					}
				}
				// The last word of a block, in the last lane of a vector
				// body that starts at pos 15 (607 − 15 = 37·16).
				block := ordinary
				block[rngLen-1] = c.words[0]
				check(kind.name+", "+c.name+" at the block's last word", block, rngLen%width, rngLen)
			}
			for start := 0; start < width; start++ {
				for n := 0; n <= 2*width+1; n++ {
					what := fmt.Sprintf("%s of %d from pos %d", kind.name, n, start)
					check(what, ordinary, start, n)
					check(what+" before the block's end", ordinary, rngLen-width-start, n)
				}
			}
		}
	})
}

// stopsAtLane runs kind's vector body over a vector whose lane holds a
// rare word and requires it to return lane, to store the Go loop's values
// below it and to leave the rest of its output as it was.
func stopsAtLane(t *testing.T, kind fillKind, what string, words []uint64, lane int) {
	t.Helper()
	const sentinel = 0x7fc0dead
	out := make([]float32, 16)
	for i := range out {
		out[i] = math.Float32frombits(sentinel)
	}
	k := kind.vec(out, words[:16])
	if k != lane {
		t.Fatalf("vector bodies: %s: the body stopped at %d", what, k)
	}
	g, _, _ := craftedAt([rngLen]uint64(words), 0)
	want := fillTarget(lane)
	kind.fill(g, want)
	sameBits(t, "vector bodies: "+what+", the lanes stored", out[:lane], want.Data())
	for i := lane; i < len(out); i++ {
		if math.Float32bits(out[i]) != sentinel {
			t.Fatalf("vector bodies: %s: lane %d was stored", what, i)
		}
	}
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
