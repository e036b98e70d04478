package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

// fuzzRel is the documented per-kernel relative error of the reduced
// precisions on unit-scale data (README, "Mixed precision"): the error
// of an f16 or i8 product, measured against the scale of its largest
// possible dot, k·max|A|·max|B|. F32 carries no quantization error.
var fuzzRel = [3]float64{0, 1e-2, 1e-1}

// FuzzGEMM is the differential check of the packed GEMM core over shapes
// up to 70 in each dimension — odd tails around MR = 4 and NR = 16 — both
// operand layouts, three precisions and 1 or 4 workers. Each product
// dst += alpha·A·B must:
//
//   - lie within the precision's bound of a float64 naive loop: the f32
//     accumulation bound γ(k+2)·(|dst| + |alpha|·Σ|a||b|) (with a 2×
//     margin), plus fuzzRel·|alpha|·k·max|A|·max|B| for f16 and i8;
//   - for f16 and i8, also equal their exact oracles bit for bit: F32
//     over f16-rounded operands, and the int8 integer dot dequantized
//     at the store;
//   - be bitwise identical at the other worker count;
//   - be bitwise identical through a PackedB holder, on the call that
//     packs its panels and on one that reuses them;
//   - for f32 and f16, be bitwise identical with the tile-pair kernels
//     switched off, per call and from the holder's kept panels, where
//     they run (AVX-512F; elsewhere the check is skipped, and says so);
//   - under a store epilogue (a column bias and/or the f16 re-store),
//     equal the product followed by a bias pass and a rounding pass, bit
//     for bit, at both worker counts and through the holder;
//   - give a row the same bits however many rows share the call: rows
//     [0, r) and [r, m), each multiplied alone (r ∈ [1, m) drawn from
//     seed; i8 at the full call's scales) per call and through the
//     holder's kept panels at both worker counts, equal the matching
//     rows of the full product. This row invariance is why a merged
//     batch needs no segmentation for f32 and f16 products (ops'
//     Ctx.Segments), under the epilogue too.
//
// Inputs are drawn from seed, so a failing corpus entry replays exactly.
// The seed corpus is testdata/fuzz/FuzzGEMM; dimensions map 1 + x%70,
// mode%2 picks the worker count and mode/2%4 the epilogue (bit 0 a bias,
// bit 1 the f16 re-store).
func FuzzGEMM(f *testing.F) {
	engines := [2]*engine.Engine{engine.New(1), engine.New(4)}
	f.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	if !asmWide {
		f.Log("tile-pair identity check skipped: " + noTilePairs)
	}
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, aT, bT bool, prec, mode, alphab uint8, seed int64) {
		m, k, n := 1+int(mb)%70, 1+int(kb)%70, 1+int(nb)%70
		p := int(prec) % 3
		alpha := [3]float32{1, 0.5, -1.5}[alphab%3]
		rng := rand.New(rand.NewSource(seed))
		a, b, dst0 := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
		ain, bin := a, b
		if aT {
			ain = transpose(a, m, k)
		}
		if bT {
			bin = transpose(b, k, n)
		}
		sa, sb := precision.I8Scale(precision.MaxAbs(a)), precision.I8Scale(precision.MaxAbs(b))
		// mul returns a copy of dst plus alpha·A·B for the rows×k operand
		// ain (in the input's layout), stored under ep, per call (h == nil)
		// or through h.
		mul := func(e *engine.Engine, h *PackedB, dst, ain []float32, rows int, ep Epilogue) []float32 {
			dst = append([]float32(nil), dst...)
			switch p {
			case 0:
				h.F32(e, dst, ain, bin, rows, k, n, alpha, aT, bT, ep)
			case 1:
				h.F16(e, dst, ain, bin, rows, k, n, alpha, aT, bT, ep)
			default:
				h.I8(e, dst, ain, bin, rows, k, n, alpha, sa, sb, aT, bT, ep)
			}
			return dst
		}
		run := func(e *engine.Engine, h *PackedB) []float32 { return mul(e, h, dst0, ain, m, Epilogue{}) }
		name := [3]string{"F32", "F16", "I8"}[p]
		w := int(mode) % 2
		got := run(engines[w], nil)

		maxA, maxB := float64(precision.MaxAbs(a)), float64(precision.MaxAbs(b))
		quant := fuzzRel[p] * math.Abs(float64(alpha)) * float64(k) * maxA * maxB
		gamma := float64(k+2) * 0x1p-23
		invA, invB, deq := 1/sa, 1/sb, alpha*sa*sb
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var dot, abs float64
				var acc int32
				for l := 0; l < k; l++ {
					x := float64(a[i*k+l]) * float64(b[l*n+j])
					dot += x
					abs += math.Abs(x)
					acc += int32(precision.I8Level(a[i*k+l], invA)) * int32(precision.I8Level(b[l*n+j], invB))
				}
				want := float64(dst0[i*n+j]) + float64(alpha)*dot
				tol := quant + gamma*(math.Abs(float64(dst0[i*n+j]))+math.Abs(float64(alpha))*abs)
				if d := math.Abs(float64(got[i*n+j]) - want); d > tol {
					t.Fatalf("%s %dx%dx%d aT=%v bT=%v alpha=%v: dst[%d][%d] = %g, naive %g (|Δ| %g > %g)",
						name, m, k, n, aT, bT, alpha, i, j, got[i*n+j], want, d, tol)
				}
				// The bound cannot see one int8 level; the integer dot can.
				if exact := dst0[i*n+j] + deq*float32(acc); p == 2 && got[i*n+j] != exact {
					t.Fatalf("I8 %dx%dx%d aT=%v bT=%v: dst[%d][%d] = %g, exact int8 dot %g",
						m, k, n, aT, bT, i, j, got[i*n+j], exact)
				}
			}
		}
		if p == 1 {
			// F16 is F32 over operands rounded to the float16 grid, bit for bit.
			ar, br := make([]float32, len(ain)), make([]float32, len(bin))
			precision.RoundF16Slice(ar, ain)
			precision.RoundF16Slice(br, bin)
			rounded := append([]float32(nil), dst0...)
			F32(engines[w], rounded, ar, br, m, k, n, alpha, aT, bT)
			wantBits(t, "F16 against F32 over f16-rounded operands", got, rounded)
		}

		wantBits(t, name+" at the other worker count", run(engines[1-w], nil), got)
		h := NewPackedB(nil)
		wantBits(t, name+" packing a holder", run(engines[w], h), got)
		wantBits(t, name+" from the holder's kept panels", run(engines[w], h), got)
		if p < 2 && asmWide {
			narrowKernels(func() {
				wantBits(t, name+" with the 4×16 kernel alone", run(engines[w], nil), got)
				wantBits(t, name+" from the holder's kept panels with the 4×16 kernel alone", run(engines[w], h), got)
			})
		}

		// The epilogue's oracle is the product followed by its passes.
		var ep Epilogue
		full := got
		if em := int(mode) / 2 % 4; em != 0 {
			if em&1 != 0 {
				ep.Bias = randSlice(rng, n)
			}
			ep.F16 = em&2 != 0
			full = append([]float32(nil), got...)
			for i, v := range full {
				if ep.Bias != nil {
					v += ep.Bias[i%n]
				}
				if ep.F16 {
					v = precision.RoundF16(v)
				}
				full[i] = v
			}
			for _, e := range engines {
				for _, hs := range []*PackedB{nil, h} {
					wantBits(t, fmt.Sprintf("%s under epilogue (bias %v, f16 %v) against product then passes (%d workers, holder %v)",
						name, ep.Bias != nil, ep.F16, e.Workers(), hs != nil), mul(e, hs, dst0, ain, m, ep), full)
				}
			}
		}

		if m == 1 {
			return
		}
		r := 1 + int(uint64(seed)%uint64(m-1))
		for _, span := range [2][2]int{{0, r}, {r, m}} {
			lo, hi := span[0], span[1]
			as := a[lo*k : hi*k]
			if aT {
				as = transpose(as, hi-lo, k)
			}
			for _, e := range engines {
				for _, hs := range []*PackedB{nil, h} {
					seg := mul(e, hs, dst0[lo*n:hi*n], as, hi-lo, ep)
					wantBits(t, fmt.Sprintf("%s rows [%d, %d) of %d alone (aT=%v bT=%v, %d workers, holder %v)",
						name, lo, hi, m, aT, bT, e.Workers(), hs != nil), seg, full[lo*n:hi*n])
				}
			}
		}
	})
}
