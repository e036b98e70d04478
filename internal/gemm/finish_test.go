package gemm

import (
	"math"
	"math/rand"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

// finishEdges are the inputs the low-precision conversions treat apart,
// as float32 bits.
var finishEdges = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7f800001, 0x7fa00000, 0x7fc00000, 0x7fd5a5a5, 0xffc00001, 0xff800001, // NaN payloads
	0x00000001, 0x807fffff, // float32 subnormals
	0x33000000, // 2⁻²⁵, half float16's smallest subnormal: rounds to even, 0
	0x33400000, // 1.5·2⁻²⁵: rounds up to 2⁻²⁴
	0x33800000, // 2⁻²⁴, float16's smallest subnormal
	0xb3c00000, // −1.5·2⁻²⁴: a tie between subnormals
	0x387fc000, // just below 2⁻¹⁴, float16's smallest normal
	0x38800000, // 2⁻¹⁴
	0x477fe000, // 65504, float16's largest finite
	0x477fefff, // just below 65520: rounds down to 65504
	0x477ff000, // 65520: rounds up to Inf
	0xc77ff000, // −65520
	0x49742400, // 1e6: float16 overflow
	0x40cc0000, // 6.375: level 127.5 at scale 0.05, saturates
	0xc0cc0000, // −6.375: saturates at −127
	0x3ccccccd, // 0.025: level ½
	0x3d19999a, // 0.0375: level 1½
}

// finishInput returns n conversion inputs: the edges above, random bit
// patterns (every magnitude, NaNs included) and values around the int8
// grid of scale 1/finishInv, some past its saturation.
func finishInput(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		switch rng.Intn(4) {
		case 0:
			x[i] = math.Float32frombits(finishEdges[rng.Intn(len(finishEdges))])
		case 1:
			x[i] = math.Float32frombits(rng.Uint32())
		default:
			x[i] = float32(rng.NormFloat64() * 4)
		}
	}
	return x
}

// finishInv is the reciprocal int8 scale of the checks: levels step by
// 0.05, and |x| ≥ 6.35 saturates.
const finishInv = 20

// The layouts, written out. bits16, grid16 and level8 are one element's
// value in each; zero-padded lanes hold 0 in all of them.
func bits16(x float32) uint16 { return precision.F16Bits(x) }
func grid16(x float32) uint32 { return math.Float32bits(precision.RoundF16(x)) }
func level8(x float32) int8   { return precision.I8Level(x, finishInv) }

// checkB compares the B panels of a k×n operand, whose element (l, j) is
// at(l, j), with each low-precision layout's definition: float16 bits and
// float16-grid values at panel index (jp·k + l)·NR + c, and int8 levels at
// the K-pair index ((jp·kp + l2)·2·NR + c·2 + p), l = 2·l2 + p. A column
// past n, or odd K's missing row, is zero. Any nil layout is skipped.
func checkB(t *testing.T, what string, k, n int, at func(l, j int) float32, h []uint16, f []float32, q []int8) {
	t.Helper()
	kp := pairsI8(k)
	for jp := 0; jp*NR < n; jp++ {
		for l := 0; l < k; l++ {
			for c := range NR {
				var x float32
				if j := jp*NR + c; j < n {
					x = at(l, j)
				}
				i := (jp*k+l)*NR + c
				if h != nil && h[i] != bits16(x) {
					t.Fatalf("%s: float16 bits [%d] (panel %d row %d lane %d) = %#04x, F16Bits(%g) = %#04x", what, i, jp, l, c, h[i], x, bits16(x))
				}
				if f != nil && math.Float32bits(f[i]) != grid16(x) {
					t.Fatalf("%s: float16 grid [%d] (panel %d row %d lane %d) = %#08x, RoundF16(%g) = %#08x", what, i, jp, l, c, math.Float32bits(f[i]), x, grid16(x))
				}
				if i := (jp*kp+l/2)*2*NR + c*2 + l%2; q != nil && q[i] != level8(x) {
					t.Fatalf("%s: int8 pairs [%d] (panel %d row %d lane %d) = %d, I8Level(%g) = %d", what, i, jp, l, c, q[i], x, level8(x))
				}
			}
		}
		if k%2 == 1 && q != nil {
			for c := range NR {
				if i := (jp*kp+kp-1)*2*NR + c*2 + 1; q[i] != 0 {
					t.Fatalf("%s: int8 pairs [%d], odd K's padding lane of panel %d, = %d, want 0", what, i, jp, q[i])
				}
			}
		}
	}
}

// checkA is checkB for the A panels of an m×k operand, element (i, l) at
// at(i, l): float16-grid values at (ip·k + l)·MR + r, and int8 levels
// widened to int16 at ((ip·kp + l2)·2·MR + r·2 + p). Any nil layout is
// skipped.
func checkA(t *testing.T, what string, m, k int, at func(i, l int) float32, f []float32, q []int16) {
	t.Helper()
	kp := pairsI8(k)
	for ip := 0; ip*MR < m; ip++ {
		for l := 0; l < k; l++ {
			for r := range MR {
				var x float32
				if i := ip*MR + r; i < m {
					x = at(i, l)
				}
				if i := (ip*k+l)*MR + r; f != nil && math.Float32bits(f[i]) != grid16(x) {
					t.Fatalf("%s: float16 grid [%d] (panel %d row %d col %d) = %#08x, RoundF16(%g) = %#08x", what, i, ip, r, l, math.Float32bits(f[i]), x, grid16(x))
				}
				if i := (ip*kp+l/2)*2*MR + r*2 + l%2; q != nil && q[i] != int16(level8(x)) {
					t.Fatalf("%s: int16 pairs [%d] (panel %d row %d col %d) = %d, I8Level(%g) = %d", what, i, ip, r, l, q[i], x, level8(x))
				}
			}
		}
		if k%2 == 1 && q != nil {
			for r := range MR {
				if i := (ip*kp+kp-1)*2*MR + r*2 + 1; q[i] != 0 {
					t.Fatalf("%s: int16 pairs [%d], odd K's padding lane of panel %d, = %d, want 0", what, i, ip, q[i])
				}
			}
		}
	}
}

// filled returns n elements of v.
func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestFinishesMatchTheirLayouts checks every low-precision conversion
// element by element against its layout's definition (checkB, checkA),
// over odd and even K, partial last panels and finishInput's edge classes
// — NaN payloads, ±0, float16 subnormals and overflow, int8 saturation.
//
//   - Into a separate buffer (a product's case): each B conversion from
//     panel rows ld apart (an untransposed operand's), and i16Pairs from
//     an f32 A panel with one to four live rows. The buffer is filled with
//     a sentinel twice, with different values, so an element the
//     conversion skips cannot pass.
//   - In place (a convolution's case): each conversion over several f32
//     panels, writing through a view of the memory it reads.
//   - Through the product packers (packBLow, packAI8 and packAF32 with
//     f16), untransposed and transposed, with partial last panels, at
//     depths that span several finishRows blocks and end mid-pair, as is
//     and under narrowKernels.
func TestFinishesMatchTheirLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	depths := []int{1, 2, 3, 4, 15, 16, 17, 32, 33}

	t.Run("separate", func(t *testing.T) {
		for _, k := range depths {
			for _, ld := range []int{NR, NR + 5, 3*NR + 1} {
				src := finishInput(rng, (k-1)*ld+NR)
				at := func(l, c int) float32 { return src[l*ld+c] }
				for _, fill := range []int{0x5a5a, 0xa5a5} {
					h := filled(k*NR, uint16(fill))
					f := filled(k*NR, math.Float32frombits(0x7f800000|uint32(fill)))
					q := filled(pairsI8(k)*2*NR, int8(fill))
					f16Rows(h, src, k, ld)
					f16Rows(f, src, k, ld)
					i8Pairs(q, src, k, ld, finishInv)
					checkB(t, "B rows", k, NR, at, h, f, q)
				}
			}
			for _, rows := range []int{1, 3, MR} {
				src := make([]float32, k*MR) // a panel: rows past `rows` zero
				in := finishInput(rng, rows*k)
				for i := range rows {
					for l := range k {
						src[l*MR+i] = in[i*k+l]
					}
				}
				for _, fill := range []int{0x5a5a, 0xa5a5} {
					q := filled(pairsI8(k)*2*MR, int16(fill))
					i16Pairs(q, src, k, finishInv)
					checkA(t, "A panel", rows, k, func(i, l int) float32 { return in[i*k+l] }, nil, q)
				}
			}
		}
	})

	t.Run("in place", func(t *testing.T) {
		for _, k := range depths {
			for _, np := range []int{1, 3} {
				b := finishInput(rng, np*k*NR) // np f32 B panels
				at := func(l, j int) float32 { return b[(j/NR*k+l)*NR+j%NR] }
				mem := append([]float32(nil), b...)
				f16Rows(view[uint16](mem), mem, np*k, NR)
				checkB(t, "B in place", k, np*NR, at, view[uint16](mem), nil, nil)
				mem = append(mem[:0], b...)
				f16Rows(mem, mem, np*k, NR)
				checkB(t, "B in place", k, np*NR, at, nil, mem, nil)
				mem = append(mem[:0], b...)
				q := view[int8](mem)
				for jp := range np {
					i8Pairs(q[jp*pairsI8(k)*2*NR:], mem[jp*k*NR:], k, NR, finishInv)
				}
				checkB(t, "B in place", k, np*NR, at, nil, nil, q)

				a := finishInput(rng, np*k*MR) // np f32 A panels
				mem = append(mem[:0], a...)
				qa := view[int16](mem)
				for ip := range np {
					i16Pairs(qa[ip*pairsI8(k)*2*MR:], mem[ip*k*MR:], k, finishInv)
				}
				checkA(t, "A in place", np*MR, k, func(i, l int) float32 { return a[(i/MR*k+l)*MR+i%MR] }, nil, qa)
			}
		}
	})

	forms := []struct {
		name string
		run  func(fn func())
	}{{"as is", func(fn func()) { fn() }}, {"narrow", narrowKernels}}
	if !asmWide {
		forms = forms[:1]
	}
	e := engine.New(2)
	defer e.Close()
	for _, form := range forms {
		t.Run("packers "+form.name, func(t *testing.T) {
			form.run(func() {
				for _, k := range []int{1, 2, 17, finishRows, finishRows + 1, 2*finishRows + 3} {
					for _, n := range []int{1, NR - 1, NR + 1, 3 * NR} {
						b := finishInput(rng, k*n)
						at := func(l, j int) float32 { return b[l*n+j] }
						for _, bT := range []bool{false, true} {
							bin := b
							if bT {
								bin = transpose(b, k, n)
							}
							mem := filled(lenF16(k, n), math.Float32frombits(0x7fbadbad))
							packBLow(e, mem, bin, k, n, bT, 0)
							h, f := f16Panels(mem)
							q := filled(panelsB(n)*pairsI8(k)*2*NR, int8(0x5a))
							packBLow(e, q, bin, k, n, bT, finishInv)
							checkB(t, "packBLow", k, n, at, h, f, q)
						}
					}
					for _, m := range []int{1, 3, MR + 1, 3 * MR} {
						a := finishInput(rng, m*k)
						at := func(i, l int) float32 { return a[i*k+l] }
						for _, aT := range []bool{false, true} {
							ain := a
							if aT {
								ain = transpose(a, m, k)
							}
							f := filled(LenA(m, k), math.Float32frombits(0x7fbadbad))
							packAF32(e, f, ain, m, k, aT, true)
							q := filled(panelsA(m)*pairsI8(k)*2*MR, int16(0x5a5a))
							packAI8(e, q, ain, m, k, aT, finishInv)
							checkA(t, "packAF32/packAI8", m, k, at, f, q)
						}
					}
				}
			})
		})
	}
}
