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
	{"wedge whose uniform is the next wedge word, accepted", []uint64{zigWord(0x81), zigWord(0x81)}},
	{"four wedge words: rejected, then accepted", []uint64{zigWord(0x7FFFFF81), zigWord(0x7FFFFF81), zigWord(0x81), zigWord(0x81)}},
	{"wedge whose uniform's Float64 is 1, redrawn", []uint64{zigWord(0x81), f64One, unitWord(0)}},
	{"wedge the vector body leaves undecided", []uint64{zigWord(wedgeUndecided), unitWord(wedgeUndecidedU), zigWord(3)}},
	{"wedge a fused L would accept", []uint64{zigWord(wedgeFusedAccepts), unitWord(wedgeFusedAcceptsU), zigWord(3)}},
	{"wedge a fused L would reject", []uint64{zigWord(wedgeFusedRejects), unitWord(wedgeFusedRejectsU)}},
}

// wedgeDelta is normalAsm's bound δ (fill_amd64.s): it settles a wedge
// only when its exp, widened by δ either way, lies on one side of the
// midpoint between L and the next float32 up.
const wedgeDelta = 0x1p-26

// Wedge words found by search (j, and the uniform as a float32 value):
// one whose math.Exp lies within δ/4 of the midpoint, which the vector
// body must hand to rand.Rand; and two a fused multiply-add in L would
// decide the other way. TestRNGRareBranches' "wedge words" pins these
// properties.
const (
	wedgeUndecided, wedgeUndecidedU       = int32(0x5dd29381), 0.45811909437179565
	wedgeFusedAccepts, wedgeFusedAcceptsU = int32(-2145827045), 0.04860788956284523
	wedgeFusedRejects, wedgeFusedRejectsU = int32(0x7af04c88), 0.7891009449958801
)

// wedge evaluates NormFloat64's wedge test for the word j and the
// uniform u: L = fn[i] + float32(u)·(fn[i−1] − fn[i]) as Go rounds it on
// amd64 (no fusion) and as one fused multiply-add would, math.Exp(−.5·x·x),
// and the midpoint between L and the next float32 up. L < float32(e)
// accepts.
func wedge(j int32, u float64) (L, fused float32, e, mid float64) {
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	d := fn[i-1] - fn[i]
	L = fn[i] + float32(float32(u)*d) // the conversion keeps the product rounded, unfused
	fused = float32(math.FMA(float64(float32(u)), float64(d), float64(fn[i])))
	e = math.Exp(-.5 * x * x)
	mid = (float64(L) + float64(math.Nextafter32(L, 2))) / 2
	return L, fused, e, mid
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
	t.Run("wedge words", func(t *testing.T) {
		if _, _, e, mid := wedge(wedgeUndecided, wedgeUndecidedU); math.Abs(e/mid-1) >= wedgeDelta/4 {
			t.Errorf("undecided word: math.Exp is %.3g from the midpoint, want within δ/4", e/mid-1)
		}
		for _, c := range []struct {
			j      int32
			u      float64
			accept bool
		}{{wedgeFusedAccepts, wedgeFusedAcceptsU, false}, {wedgeFusedRejects, wedgeFusedRejectsU, true}} {
			L, fused, e, mid := wedge(c.j, c.u)
			if r := math.Abs(e/mid - 1); r <= 4*wedgeDelta {
				t.Errorf("j = %#x: math.Exp is %.3g from the midpoint, want beyond 4δ", c.j, r)
			}
			if L < float32(e) != c.accept || fused < float32(e) == c.accept {
				t.Errorf("j = %#x: L accepts %v, fused L %v; want %v and %v",
					c.j, L < float32(e), fused < float32(e), c.accept, !c.accept)
			}
		}
	})
	t.Run("lanes", rareLanes)
}

// fillKind is one of the two fills, with its oracle, its vector body and
// the body's contract in Go.
type fillKind struct {
	name   string
	fill   func(g *RNG, x *Tensor)
	oracle func(o *rand.Rand, n int) []float32
	// body runs the vector body over out and w and returns the words it
	// consumed and the elements it stored; model is the same contract in
	// Go, with ok false where the body may go either way.
	body  func(out []float32, w []uint64) (words, stored int)
	model func(out []float32, w []uint64, settleNear bool) (words, stored int, ok bool)
	rare  []struct {
		name  string
		words []uint64
	}
	fast func(w uint64) bool       // whether w stays on the fill's fast path
	slow func(r *rand.Rand) uint64 // a random word off the fast path
}

var fillKinds = []fillKind{
	{
		name:   "Uniform",
		fill:   func(g *RNG, x *Tensor) { g.Uniform(x, uniLo, uniHi) },
		oracle: uniformOracle,
		body: func(out []float32, w []uint64) (int, int) {
			k := uniformVec(out[:min(len(out), len(w))], w, uniLo, uniHi)
			return k, k
		},
		model: uniformModel,
		rare:  uniformRare,
		fast:  func(w uint64) bool { return float32(float64(int64(w&rngMask))/(1<<63)) != 1 },
		slow:  func(r *rand.Rand) uint64 { return f64One - r.Uint64()%(1<<38) | r.Uint64()&(1<<63) },
	},
	{
		name:   "Normal",
		fill:   func(g *RNG, x *Tensor) { g.Normal(x, normMean, normSD) },
		oracle: normalOracle,
		body:   func(out []float32, w []uint64) (int, int) { return normalVec(out, w, normMean, normSD) },
		model:  normalModel,
		rare:   normalRare,
		fast:   func(w uint64) bool { j := int32(w >> 31); return absInt32(j) < kn[j&0x7F] },
		slow: func(r *rand.Rand) uint64 {
			for {
				if w := r.Uint64(); absInt32(int32(w>>31)) >= kn[int32(w>>31)&0x7F] {
					return w
				}
			}
		},
	},
}

// uniformModel is uniformAsm's contract as Uniform calls it: the first
// min(len(out), len(w))&^15 words, up to the first that Float32 rounds
// to 1.
func uniformModel(out []float32, w []uint64, _ bool) (words, stored int, ok bool) {
	n, k := min(len(out), len(w))&^15, 0
	for ; k < n; k++ {
		f := float32(float64(int64(w[k]&rngMask)) / (1 << 63))
		if f == 1 {
			break
		}
		out[k] = uniLo + (uniHi-uniLo)*f
	}
	return k, k, true
}

// normalModel is normalAsm's contract (fill_amd64.go), step by step: a
// step is sixteen words, of which those below the words and the elements
// left are given; a draw past them ends the body. A fast word stores its
// value. A wedge among the step's first eight wedge words, drawn or not,
// whose uniform is given and not 1, is settled when math.Exp lies beyond
// 4δ of the midpoint (an acceptance stores the fast path's value) and
// stops the body within δ/4; between, the body may do either, and the
// model settles it if settleNear and reports ok = false. Any other word
// off the fast path stops the body.
func normalModel(out []float32, w []uint64, settleNear bool) (words, stored int, ok bool) {
	ok = true
	q, s := 0, 0 // the next draw, the elements stored
	for p := 0; ; p += 16 {
		given := min(len(w)-p, len(out)-s)
		if given <= 0 {
			return q, s, ok
		}
		var rank [16]int // a wedge word's place among the step's
		for l, n := 0, 0; l < min(given, 16); l++ {
			if j := int32(w[p+l] >> 31); j&0x7F != 0 && absInt32(j) >= kn[j&0x7F] {
				rank[l], n = n, n+1
			}
		}
		for q < p+16 {
			if q-p >= given {
				return q, s, ok
			}
			j := int32(w[q] >> 31)
			i := j & 0x7F
			v := normMean + normSD*float32(float64(j)*float64(wn[i]))
			if absInt32(j) < kn[i] {
				out[s], s, q = v, s+1, q+1
				continue
			}
			if i == 0 || rank[q-p] >= 8 || q+1 >= len(w) {
				return q, s, ok
			}
			u := float64(int64(w[q+1]&rngMask)) / (1 << 63)
			if u == 1 {
				return q, s, ok
			}
			_, _, e, mid := wedge(j, u)
			if r := math.Abs(e/mid - 1); r < wedgeDelta/4 {
				return q, s, ok
			} else if r <= 4*wedgeDelta {
				if ok = false; !settleNear {
					return q, s, ok
				}
			}
			if e > mid {
				out[s], s = v, s+1
			}
			q += 2
		}
	}
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
// fill must draw math/rand's words. On the vector bodies, a body run
// over the same words must keep its contract (bodyMatchesModel): stop
// where its model stops, consume and store what the model does and leave
// the rest of its output alone.
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
					if vecFills {
						bodyMatchesModel(t, kind, what, block[:], 2*width)
					}
				}
				// The last word of a block, in the last lane of a vector
				// body that starts at pos 15 (607 − 15 = 37·16).
				block := ordinary
				block[rngLen-1] = c.words[0]
				what := kind.name + ", " + c.name + " at the block's last word"
				check(what, block, rngLen%width, rngLen)
				if vecFills {
					bodyMatchesModel(t, kind, what, block[rngLen-2*width:], 2*width)
				}
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

// bodyMatchesModel runs kind's vector body over words into n elements
// and requires the words it consumed, the elements it stored and their
// values to be its model's, and the rest of its output left alone.
func bodyMatchesModel(t *testing.T, kind fillKind, what string, words []uint64, n int) {
	t.Helper()
	const sentinel = 0x7fc0dead
	fresh := func() []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(sentinel)
		}
		return out
	}
	out := fresh()
	c, k := kind.body(out, words)
	for _, settle := range []bool{false, true} {
		want := fresh()
		wc, wk, ok := kind.model(want, words, settle)
		if c == wc && k == wk {
			sameBits(t, "vector bodies: "+what+", the elements stored", out[:k], want[:k])
			for i := k; i < n; i++ {
				if math.Float32bits(out[i]) != sentinel {
					t.Fatalf("vector bodies: %s: element %d was stored", what, i)
				}
			}
			return
		}
		if ok {
			t.Fatalf("vector bodies: %s: consumed %d words and stored %d elements, want %d and %d", what, c, k, wc, wk)
		}
	}
	t.Fatalf("vector bodies: %s: consumed %d words and stored %d elements, as neither reading of an undecided wedge does", what, c, k)
}

// TestRNGVectorBodies runs the vector bodies over random blocks whose
// words leave the fast path at a growing rate, up to every word, with
// every run length through two steps, from a block's start, inside it
// and into its end: each run must keep its body's contract and each fill
// must give math/rand's values, on both fill paths.
func TestRNGVectorBodies(t *testing.T) {
	if !vecHost {
		t.Log("this host does not select the vector fill bodies: only the fills are checked")
	}
	r := rand.New(rand.NewSource(45))
	for ki, kind := range fillKinds {
		for _, rate := range []float64{0, 1.0 / 16, 1.0 / 4, 1} {
			var block [rngLen]uint64
			for i := range block {
				if block[i] = r.Uint64(); r.Float64() < rate {
					block[i] = kind.slow(r)
				}
			}
			what := fmt.Sprintf("%s over a block with words off the fast path at %g", kind.name, rate)
			for n := 1; n <= 33; n++ {
				for _, start := range []int{0, ki + 5, rngLen - n - 17, rngLen - n, rngLen - 1} {
					if vecHost {
						bodyMatchesModel(t, kind, fmt.Sprintf("%s, %d from %d", what, n, start), block[start:], n)
					}
					eachFillPath(func(path string) {
						g, o, _ := craftedAt(block, start)
						x := New(n)
						kind.fill(g, x)
						sameBits(t, fmt.Sprintf("%s: %s, %d from %d", path, what, n, start), x.Data(), kind.oracle(o, n))
					})
				}
			}
			if vecHost {
				bodyMatchesModel(t, kind, what+", whole", block[:], rngLen)
			}
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
