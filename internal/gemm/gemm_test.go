package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

// refMatMul computes dst += alpha·A·B in float64 from row-major logical
// operands — the accuracy reference for the f32 kernels. (Transposed
// storage is exercised by handing the drivers reshuffled arrays; the
// logical product is the same.)
func refMatMul(dst, a, b []float32, m, k, n int, alpha float32) []float64 {
	out := make([]float64, m*n)
	for i := range dst {
		out[i] = float64(dst[i])
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += float64(a[i*k+l]) * float64(b[l*n+j])
			}
			out[i*n+j] += float64(alpha) * sum
		}
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

var testShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{4, 16, 16},
	{5, 17, 19},
	{8, 64, 33},
	{37, 41, 29},
	{64, 64, 64},
	{2, 128, 1},
	{1, 7, 100},
}

func TestF32AgainstReference(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	for _, sh := range testShapes {
		for _, tr := range []struct{ aT, bT bool }{{false, false}, {false, true}, {true, false}} {
			for _, alpha := range []float32{1, 0.5} {
				a := randSlice(rng, sh.m*sh.k)
				b := randSlice(rng, sh.k*sh.n)
				dst := randSlice(rng, sh.m*sh.n)
				want := refMatMul(dst, a, b, sh.m, sh.k, sh.n, alpha)
				// Operands are stored pre-transposed when aT/bT: reshuffle.
				ain, bin := a, b
				if tr.aT {
					ain = transpose(a, sh.m, sh.k)
				}
				if tr.bT {
					bin = transpose(b, sh.k, sh.n)
				}
				F32(e, dst, ain, bin, sh.m, sh.k, sh.n, alpha, tr.aT, tr.bT)
				tol := 1e-5 * math.Sqrt(float64(sh.k))
				for i := range dst {
					if d := math.Abs(float64(dst[i]) - want[i]); d > tol {
						t.Fatalf("shape %dx%dx%d aT=%v bT=%v alpha=%v: dst[%d]=%g want %g (|Δ|=%g)",
							sh.m, sh.k, sh.n, tr.aT, tr.bT, alpha, i, dst[i], want[i], d)
					}
				}
			}
		}
	}
}

// transpose returns the [cols,rows] layout of a row-major [rows,cols]
// matrix, so tests can hand the drivers genuinely transposed storage.
func transpose(x []float32, rows, cols int) []float32 {
	out := make([]float32, len(x))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = x[i*cols+j]
		}
	}
	return out
}

func TestI8ExactIntegerSemantics(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	for _, sh := range testShapes {
		a := randSlice(rng, sh.m*sh.k)
		b := randSlice(rng, sh.k*sh.n)
		dst0 := randSlice(rng, sh.m*sh.n)
		sa := precision.I8Scale(precision.MaxAbs(a))
		sb := precision.I8Scale(precision.MaxAbs(b))
		alpha := float32(0.75)

		// Reference: quantize through the shared grid, integer matmul,
		// then the driver's exact store arithmetic dst += deq·float32(acc).
		invA, invB := 1/sa, 1/sb
		deq := alpha * sa * sb
		want := make([]float32, sh.m*sh.n)
		copy(want, dst0)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				var acc int64
				for l := 0; l < sh.k; l++ {
					qa := int64(precision.I8Level(a[i*sh.k+l], invA))
					qb := int64(precision.I8Level(b[l*sh.n+j], invB))
					acc += qa * qb
				}
				want[i*sh.n+j] += deq * float32(acc)
			}
		}

		dst := make([]float32, len(dst0))
		copy(dst, dst0)
		I8(e, dst, a, b, sh.m, sh.k, sh.n, alpha, sa, sb, false, false)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("shape %dx%dx%d: dst[%d]=%g want %g (exact int8 mismatch)",
					sh.m, sh.k, sh.n, i, dst[i], want[i])
			}
		}
	}
}

func TestI8TransposedVariants(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	m, k, n := 13, 21, 18
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	sa := precision.I8Scale(precision.MaxAbs(a))
	sb := precision.I8Scale(precision.MaxAbs(b))

	base := make([]float32, m*n)
	I8(e, base, a, b, m, k, n, 1, sa, sb, false, false)

	viaAT := make([]float32, m*n)
	I8(e, viaAT, transpose(a, m, k), b, m, k, n, 1, sa, sb, true, false)
	viaBT := make([]float32, m*n)
	I8(e, viaBT, a, transpose(b, k, n), m, k, n, 1, sa, sb, false, true)
	for i := range base {
		if base[i] != viaAT[i] || base[i] != viaBT[i] {
			t.Fatalf("transposed i8 variants disagree at %d: NN=%g TN=%g NT=%g",
				i, base[i], viaAT[i], viaBT[i])
		}
	}
}

// TestF16MatchesRoundedF32 checks the central f16 identity: the packed
// f16 kernel (u16 panels + vcvtph2ps, or the f32 fallback layout) must
// produce bitwise the same result as the plain f32 kernel run on
// operands pre-rounded through the float16 grid.
func TestF16MatchesRoundedF32(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(4))
	for _, sh := range testShapes {
		a := randSlice(rng, sh.m*sh.k)
		b := randSlice(rng, sh.k*sh.n)

		ar := make([]float32, len(a))
		br := make([]float32, len(b))
		precision.RoundF16Slice(ar, a)
		precision.RoundF16Slice(br, b)
		want := make([]float32, sh.m*sh.n)
		F32(e, want, ar, br, sh.m, sh.k, sh.n, 1, false, false)

		got := make([]float32, sh.m*sh.n)
		F16(e, got, a, b, sh.m, sh.k, sh.n, 1, false, false)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("shape %dx%dx%d: f16[%d]=%x want %x",
					sh.m, sh.k, sh.n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestWorkerDeterminism: bitwise identical results at 1, 4 and 16
// workers for all three precisions — the engine contract the packed
// drivers must uphold.
func TestWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, n := 67, 129, 45
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	sa := precision.I8Scale(precision.MaxAbs(a))
	sb := precision.I8Scale(precision.MaxAbs(b))

	type result struct{ f32, f16, i8 []float32 }
	run := func(workers int) result {
		e := engine.New(workers)
		defer e.Close()
		r := result{
			f32: make([]float32, m*n),
			f16: make([]float32, m*n),
			i8:  make([]float32, m*n),
		}
		F32(e, r.f32, a, b, m, k, n, 1, false, false)
		F16(e, r.f16, a, b, m, k, n, 1, false, false)
		I8(e, r.i8, a, b, m, k, n, 1, sa, sb, false, false)
		return r
	}

	base := run(1)
	for _, workers := range []int{4, 16} {
		got := run(workers)
		for i := range base.f32 {
			if math.Float32bits(base.f32[i]) != math.Float32bits(got.f32[i]) {
				t.Fatalf("f32 differs at %d workers, element %d", workers, i)
			}
			if math.Float32bits(base.f16[i]) != math.Float32bits(got.f16[i]) {
				t.Fatalf("f16 differs at %d workers, element %d", workers, i)
			}
			if math.Float32bits(base.i8[i]) != math.Float32bits(got.i8[i]) {
				t.Fatalf("i8 differs at %d workers, element %d", workers, i)
			}
		}
	}
}

// TestRowBiasFollowsItsRow: a product whose Epilogue carries RowBias
// stores RowBias[i] + alpha·acc into row i however the engine splits the
// A panels, with and without ReLU, at f32, f16 and i8 — the bits of the
// same product accumulated into a dst filled with each row's bias, then
// rounded and clamped.
func TestRowBiasFollowsItsRow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, k, n := 4*MR+3, 33, NR+5
	a, b, rb := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m)
	sa, sb := precision.I8Scale(precision.MaxAbs(a)), precision.I8Scale(precision.MaxAbs(b))
	for _, workers := range []int{1, 3} {
		e := engine.New(workers)
		for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
			for _, relu := range []bool{false, true} {
				ep := Epilogue{RowBias: rb, F16: prec == precision.F16, ReLU: relu}
				got, want := make([]float32, m*n), make([]float32, m*n)
				for i := range got {
					got[i] = float32(math.NaN()) // the store must not read dst
					want[i] = rb[i/n]
				}
				switch prec {
				case precision.F32:
					(*PackedB)(nil).F32(e, got, a, b, m, k, n, 0.5, false, false, ep)
					(*PackedB)(nil).F32(e, want, a, b, m, k, n, 0.5, false, false, Epilogue{})
				case precision.F16:
					(*PackedB)(nil).F16(e, got, a, b, m, k, n, 0.5, false, false, ep)
					(*PackedB)(nil).F16(e, want, a, b, m, k, n, 0.5, false, false, Epilogue{})
					precision.RoundF16Slice(want, want)
				case precision.I8:
					(*PackedB)(nil).I8(e, got, a, b, m, k, n, 0.5, sa, sb, false, false, ep)
					(*PackedB)(nil).I8(e, want, a, b, m, k, n, 0.5, sa, sb, false, false, Epilogue{})
				}
				if relu {
					reluInPlace(want)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%v relu=%t, %d workers: dst[%d] (row %d) = %g, bias-filled product %g", prec, relu, workers, i, i/n, got[i], want[i])
					}
				}
			}
		}
		e.Close()
	}
}

// TestRowCountInvariance pins the property merged cross-request batches
// rely on: a dst row's bits depend only on that row of A (and on B), not
// on how many other rows share the call or where the row sits in its
// MR-row panel. Every tile is zero-padded to a full MR×NR block and each
// dst element accumulates its whole K in one micro-kernel call, so rows
// [lo,hi) of a 9-row product must equal the product of those rows alone,
// bitwise, for every row range (which covers every m in 1..9 and every
// prefix of each), odd K (the i8 pair padding), N around the NR tail,
// every operand layout, all three kernels (I8 at fixed scales — the
// calibration is the caller's) and 1 and 4 workers.
func TestRowCountInvariance(t *testing.T) {
	const m = 2*MR + 1
	kernels := []struct {
		name string
		run  func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool)
	}{
		{"F32", func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			F32(e, dst, a, b, m, k, n, 0.5, aT, bT)
		}},
		{"F16", func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			F16(e, dst, a, b, m, k, n, 0.5, aT, bT)
		}},
		{"I8", func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			I8(e, dst, a, b, m, k, n, 0.5, 1.0/127, 1.0/127, aT, bT)
		}},
	}
	rng := rand.New(rand.NewSource(6))
	for _, workers := range []int{1, 4} {
		e := engine.New(workers)
		for _, k := range []int{7, 33} {
			for _, n := range []int{1, NR - 1, NR, NR + 1, 2*NR + 1} {
				a := randSlice(rng, m*k) // logical row-major A[m,k]
				b := randSlice(rng, k*n)
				dst0 := randSlice(rng, m*n)
				for _, kern := range kernels {
					for _, tr := range []struct{ aT, bT bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						bin := b
						if tr.bT {
							bin = transpose(b, k, n)
						}
						// product runs the kernel over logical rows [lo,hi).
						product := func(lo, hi int) []float32 {
							ain := a[lo*k : hi*k]
							if tr.aT {
								ain = transpose(ain, hi-lo, k)
							}
							dst := append([]float32(nil), dst0[lo*n:hi*n]...)
							kern.run(e, dst, ain, bin, hi-lo, k, n, tr.aT, tr.bT)
							return dst
						}
						full := product(0, m)
						for lo := 0; lo < m; lo++ {
							for hi := lo + 1; hi <= m; hi++ {
								got := product(lo, hi)
								for i, v := range got {
									if want := full[lo*n+i]; math.Float32bits(v) != math.Float32bits(want) {
										t.Fatalf("%s k=%d n=%d aT=%v bT=%v workers=%d: rows [%d,%d) alone differ from the %d-row product at elem %d: %g vs %g",
											kern.name, k, n, tr.aT, tr.bT, workers, lo, hi, m, i, v, want)
									}
								}
							}
						}
					}
				}
			}
		}
		e.Close()
	}
}

// TestPoisonPanelSafety runs every packed path under NaN poison-on-free:
// a read of any pooled byte the pack step failed to overwrite surfaces
// as NaN in the output.
func TestPoisonPanelSafety(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(6))
	m, k, n := 21, 33, 27 // deliberately ragged against MR/NR
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	sa := precision.I8Scale(precision.MaxAbs(a))
	sb := precision.I8Scale(precision.MaxAbs(b))

	for pass := 0; pass < 3; pass++ { // later passes reuse poisoned buffers
		for name, run := range map[string]func(dst []float32){
			"f32": func(dst []float32) { F32(e, dst, a, b, m, k, n, 1, false, false) },
			"f16": func(dst []float32) { F16(e, dst, a, b, m, k, n, 1, false, false) },
			"i8":  func(dst []float32) { I8(e, dst, a, b, m, k, n, 1, sa, sb, false, false) },
		} {
			dst := make([]float32, m*n)
			run(dst)
			for i, v := range dst {
				if math.IsNaN(float64(v)) {
					t.Fatalf("%s pass %d: NaN at %d — packed panel read uninitialized pool bytes", name, pass, i)
				}
			}
		}
	}
}

func TestGenericKernelsMatchReference(t *testing.T) {
	// The generic kernels back every non-amd64 platform (and pre-AVX2
	// CPUs); check them directly against the scalar definition even when
	// this machine dispatches to assembly.
	rng := rand.New(rand.NewSource(7))
	k := 19
	ap := randSlice(rng, k*MR)
	bp := randSlice(rng, k*NR)
	var tile [MR * NR]float32
	genericKernF32(ap, bp, &tile, k)
	for r := 0; r < MR; r++ {
		for c := 0; c < NR; c++ {
			var want float64
			for l := 0; l < k; l++ {
				want += float64(ap[l*MR+r]) * float64(bp[l*NR+c])
			}
			if d := math.Abs(float64(tile[r*NR+c]) - want); d > 1e-4 {
				t.Fatalf("genericKernF32 tile[%d][%d]=%g want %g", r, c, tile[r*NR+c], want)
			}
		}
	}

	kp := 9
	api := make([]int16, kp*2*MR)
	bpi := make([]int8, kp*2*NR)
	for i := range api {
		api[i] = int16(rng.Intn(255) - 127)
	}
	for i := range bpi {
		bpi[i] = int8(rng.Intn(255) - 127)
	}
	var itile [MR * NR]int32
	genericKernI8(api, bpi, &itile, kp)
	for r := 0; r < MR; r++ {
		for c := 0; c < NR; c++ {
			var want int32
			for l2 := 0; l2 < kp; l2++ {
				want += int32(api[l2*MR*2+r*2])*int32(bpi[l2*NR*2+c*2]) +
					int32(api[l2*MR*2+r*2+1])*int32(bpi[l2*NR*2+c*2+1])
			}
			if itile[r*NR+c] != want {
				t.Fatalf("genericKernI8 tile[%d][%d]=%d want %d", r, c, itile[r*NR+c], want)
			}
		}
	}
}

// poisoned returns n NaNs.
func poisoned(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// embed copies a rows×cols block into a NaN-filled array whose rows are ld
// apart, starting off elements in.
func embed(x []float32, rows, cols, ld, off int) []float32 {
	out := poisoned(off + rows*ld)
	for r := 0; r < rows; r++ {
		copy(out[off+r*ld:off+r*ld+cols], x[r*cols:(r+1)*cols])
	}
	return out
}

// tileLevel computes dst0 + alpha·A·B (A m×k, B k×n row-major, or B
// stored transposed when bT) through the serial tile-level entry over
// strided views: the operand blocks sit inside wider, NaN-filled arrays,
// as head slices sit inside [B,T,D] projections, and dst rows are wider
// than n. Panel scratch starts NaN-filled too, so an element the pack
// routines left unwritten, or a read outside the block, surfaces in the
// result.
func tileLevel(dst0, a, b []float32, m, k, n int, bT bool, alpha float32) []float32 {
	got := embed(dst0, m, n, n+5, 2)
	ap, bp := poisoned(LenA(m, k)), poisoned(LenB(k, n))
	PackA(ap, embed(a, m, k, k+3, 1)[1:], m, k, k+3)
	if bT {
		PackBT(bp, embed(b, n, k, k+7, 4)[4:], k, n, k+7)
	} else {
		PackB(bp, embed(b, k, n, n+2, 3)[3:], k, n, n+2)
	}
	MulPanels(got[2:], n+5, ap, bp, m, k, n, alpha)
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		copy(out[i*n:(i+1)*n], got[2+i*(n+5):])
	}
	return out
}

// TestTileLevelEntryMatchesF32 drives the serial tile-level entry (PackA,
// PackB, PackBT, MulPanels) over tileLevel's strided, NaN-poisoned views
// and requires the bits F32 gives the same product from contiguous
// copies: same panels, same driver. It must not move the pack counters
// (caller-owned scratch is not pool traffic).
func TestTileLevelEntryMatchesF32(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	before := e.Stats().Pack
	for _, sh := range testShapes {
		for _, bT := range []bool{false, true} {
			a, b := randSlice(rng, sh.m*sh.k), randSlice(rng, sh.k*sh.n)
			want := randSlice(rng, sh.m*sh.n)
			got := tileLevel(want, a, b, sh.m, sh.k, sh.n, bT, 0.5)
			F32(e, want, a, b, sh.m, sh.k, sh.n, 0.5, false, bT)
			wantBits(t, fmt.Sprintf("%dx%dx%d bT=%v: tile-level entry against F32", sh.m, sh.k, sh.n, bT), got, want)
		}
	}
	after := e.Stats().Pack
	// F32 itself draws two panels per call; the tile-level calls none.
	if calls := int64(2 * len(testShapes)); after.PanelCheckouts-before.PanelCheckouts != 2*calls {
		t.Errorf("pack checkouts moved by %d over %d F32 calls, want %d", after.PanelCheckouts-before.PanelCheckouts, calls, 2*calls)
	}
}

func TestPackStatsCount(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	defBefore := PackStats()
	dst := make([]float32, 8*8)
	a := make([]float32, 8*8)
	b := make([]float32, 8*8)
	F32(e, dst, a, b, 8, 8, 8, 1, false, false)
	// One B and one A panel set, each of one full panel of K = 8 rows.
	want := PackActivity{PanelCheckouts: 2, PanelBytes: int64(LenB(8, 8)+LenA(8, 8)) * 4}
	if got := e.Stats().Pack; got != want {
		t.Fatalf("engine pack counters %+v after one F32 call, want %+v", got, want)
	}
	// An int8 product draws its panels as views of float32 memory: one B
	// set of int8 K-pairs and one A set of int16 K-pairs, counted at their
	// exact bytes.
	before := e.Stats().Pack
	I8(e, dst, a, b, 8, 8, 8, 1, 1, 1, false, false)
	kp := pairsI8(8)
	wantBytes := int64(panelsB(8)*kp*2*NR) + int64(panelsA(8)*kp*2*MR)*2
	if got := e.Stats().Pack; got.PanelCheckouts-before.PanelCheckouts != 2 || got.PanelBytes-before.PanelBytes != wantBytes {
		t.Fatalf("engine pack counters %+v -> %+v across one I8 call, want 2 checkouts of %d bytes", before, got, wantBytes)
	}
	if def := PackStats(); def != defBefore {
		t.Fatalf("a call on a private engine moved the default engine's pack counters: %+v -> %+v", defBefore, def)
	}
}

func BenchmarkPackedF32_512(b *testing.B) {
	e := engine.New(1)
	defer e.Close()
	const d = 512
	rng := rand.New(rand.NewSource(8))
	a := randSlice(rng, d*d)
	bb := randSlice(rng, d*d)
	dst := make([]float32, d*d)
	b.SetBytes(3 * d * d * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F32(e, dst, a, bb, d, d, d, 1, false, false)
	}
}

func BenchmarkPackedI8_512(b *testing.B) {
	e := engine.New(1)
	defer e.Close()
	const d = 512
	rng := rand.New(rand.NewSource(9))
	a := randSlice(rng, d*d)
	bb := randSlice(rng, d*d)
	sa := precision.I8Scale(precision.MaxAbs(a))
	sb := precision.I8Scale(precision.MaxAbs(bb))
	dst := make([]float32, d*d)
	b.SetBytes(3 * d * d * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		I8(e, dst, a, bb, d, d, d, 1, sa, sb, false, false)
	}
}

func BenchmarkPackedF16_512(b *testing.B) {
	e := engine.New(1)
	defer e.Close()
	const d = 512
	rng := rand.New(rand.NewSource(10))
	a := randSlice(rng, d*d)
	bb := randSlice(rng, d*d)
	dst := make([]float32, d*d)
	b.SetBytes(3 * d * d * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F16(e, dst, a, bb, d, d, d, 1, false, false)
	}
}

// TestPackBConvMatchesStoredPatchMatrix builds a sample's patch matrix by
// definition, packs it with PackB and finishes copies of those panels in
// every low-precision layout (float16 bits, the float16 grid and int8 K
// pairs, each into its own buffer), and requires the same panels — every
// element, padding included — from the gather and from each finish run
// over the gathered panels in place, as a convolution runs it, for
// windows of columns that start and end mid-row and mid-panel. Scratch
// starts NaN-filled, so an element the gather skips fails the comparison,
// and a sentinel past LenB catches a write beyond it. The image sits
// inside a larger NaN-filled buffer, so a lane that reads outside the
// image shows up as a NaN in the panels. The stride-1 shapes are the
// AVX-512F gather's cases: output rows 1 to 64 wide (one panel spans up
// to 16 runs), windows wider than the image with taps wholly over its
// border, and the layers avmnist, vnt, push and medseg serve. Every case
// runs as is and under narrowKernels, which keeps the scalar per-run loop.
func TestPackBConvMatchesStoredPatchMatrix(t *testing.T) {
	type form struct {
		name string
		run  func(fn func())
	}
	forms := []form{{"as is", func(fn func()) { fn() }}, {"narrow", narrowKernels}}
	if !asmWide {
		t.Log("no AVX-512F with ZMM state on this host (or a noasm/non-amd64 build): only the scalar loop runs")
		forms = forms[:1]
	}
	const past = 0x7f80dead
	rng := rand.New(rand.NewSource(11))
	for _, g := range []ConvShape{
		{C: 2, H: 9, W: 23, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 3, H: 11, W: 7, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{C: 1, H: 6, W: 40, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{C: 2, H: 8, W: 19, KH: 1, KW: 1, Stride: 3, Pad: 2},
		{C: 1, H: 5, W: 30, KH: 4, KW: 7, Stride: 3, Pad: 3},
		// Stride 1, OW = 1, 3, 6, 10, 15, 16, 17, 28, 33, 64.
		{C: 2, H: 40, W: 3, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{C: 1, H: 20, W: 5, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{C: 2, H: 12, W: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 1, H: 9, W: 8, KH: 2, KW: 5, Stride: 1, Pad: 3},
		{C: 3, H: 7, W: 15, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 2, H: 6, W: 18, KH: 2, KW: 3, Stride: 1, Pad: 0},
		{C: 1, H: 8, W: 17, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{C: 2, H: 4, W: 30, KH: 1, KW: 3, Stride: 1, Pad: 0},
		{C: 2, H: 5, W: 33, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 1, H: 3, W: 64, KH: 3, KW: 3, Stride: 1, Pad: 1},
		// KW > W, Pad ≥ KW−1: whole taps fall outside the image.
		{C: 2, H: 3, W: 2, KH: 4, KW: 5, Stride: 1, Pad: 4},
		{C: 1, H: 1, W: 1, KH: 3, KW: 3, Stride: 1, Pad: 2},
		{C: 1, H: 2, W: 3, KH: 2, KW: 4, Stride: 1, Pad: 5},
		// Served: avmnist's LeNet layers (image and spectrogram), vnt's
		// first layer and 3×3 stacks, push's and medseg's.
		{C: 1, H: 28, W: 28, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{C: 6, H: 14, W: 14, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{C: 1, H: 20, W: 20, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{C: 6, H: 10, W: 10, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{C: 3, H: 128, W: 128, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 16, H: 64, W: 64, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 32, H: 32, W: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 32, H: 16, W: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{C: 64, H: 16, W: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
	} {
		g.OH, g.OW = (g.H+2*g.Pad-g.KH)/g.Stride+1, (g.W+2*g.Pad-g.KW)/g.Stride+1
		k, m, plane := g.K(), g.OH*g.OW, g.H*g.W
		guard := plane + 64
		buf := make([]float32, guard+g.C*plane+guard)
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
		img := buf[guard : guard+g.C*plane]
		copy(img, randSlice(rng, len(img)))
		patches := make([]float32, k*m)
		for l := 0; l < k; l++ {
			ci, ky, kx := l/(g.KH*g.KW), l/g.KW%g.KH, l%g.KW
			for j := 0; j < m; j++ {
				iy, ix := j/g.OW*g.Stride+ky-g.Pad, j%g.OW*g.Stride+kx-g.Pad
				if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
					patches[l*m+j] = img[(ci*g.H+iy)*g.W+ix]
				}
			}
		}
		sb := precision.I8Scale(precision.MaxAbs(img))
		for _, win := range [][2]int{{0, m}, {0, 1}, {5, 16}, {16, 17}, {m - 33, 33}, {m / 2, 15}, {m / 3, 5*NR + 3}} {
			j0, n := win[0], win[1]
			if j0 < 0 || j0+n > m {
				continue
			}
			want := make([]float32, LenB(k, n))
			PackB(want, patches[j0:], k, n, m)
			rows := len(want) / NR // every panel's rows, one after another
			wantU16 := make([]uint16, len(want))
			f16Rows(wantU16, want, rows, NR)
			wantGrid := make([]float32, len(want))
			f16Rows(wantGrid, want, rows, NR)
			i8Panels := func(dst []int8, src []float32) []int8 {
				for jp := range panelsB(n) {
					i8Pairs(dst[jp*pairsI8(k)*2*NR:], src[jp*k*NR:], k, NR, 1/sb)
				}
				return dst[:panelsB(n)*pairsI8(k)*2*NR]
			}
			wantI8 := i8Panels(make([]int8, panelsB(n)*pairsI8(k)*2*NR), want)

			gather := func() []float32 {
				lb := LenB(k, n)
				bp := make([]float32, lb+NR)
				for i := range bp {
					bp[i] = float32(math.NaN())
				}
				for i := lb; i < len(bp); i++ {
					bp[i] = math.Float32frombits(past)
				}
				PackBConv(bp[:lb], img, g, j0, n)
				for i := lb; i < len(bp); i++ {
					if math.Float32bits(bp[i]) != past {
						t.Fatalf("%+v cols [%d,%d): wrote bp[%d], past LenB = %d", g, j0, j0+n, i, lb)
					}
				}
				return bp[:lb]
			}
			for _, f := range forms {
				f.run(func() {
					got := gather()
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %+v cols [%d,%d): panel[%d] = %g, PackB of the patch matrix gives %g", f.name, g, j0, j0+n, i, got[i], want[i])
						}
					}
					bp := gather()
					if f16Rows(view[uint16](bp), bp, rows, NR); !slices.Equal(view[uint16](bp)[:len(want)], wantU16) {
						t.Fatalf("%s %+v cols [%d,%d): in-place float16 bits differ from the stored matrix's", f.name, g, j0, j0+n)
					}
					bp = gather()
					if f16Rows(bp, bp, rows, NR); !slices.EqualFunc(bp, wantGrid, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
						t.Fatalf("%s %+v cols [%d,%d): in-place float16-grid panels differ from the stored matrix's", f.name, g, j0, j0+n)
					}
					bp = gather()
					if gotI8 := i8Panels(view[int8](bp), bp); !slices.Equal(gotI8, wantI8) {
						t.Fatalf("%s %+v cols [%d,%d): in-place i8 panels differ from the stored matrix's", f.name, g, j0, j0+n)
					}
				})
			}
		}
	}
}
