package ops

import (
	"fmt"
	"math"

	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/precision"
)

// Fused scaled-dot-product attention.
//
// Composed from separate operators, attention materializes the full
// [B·H,Tq,Tk] score matrix plus seven more intermediates — the worst
// memory-traffic offender in the transformer encoders that dominate
// MMBench's multi-modal pipelines. Ctx.Attention computes the same
// function in one pass per (batch·head, query-tile) work unit, with both
// products — S = scale·Q·Kᵀ and O = P·V — on internal/gemm's packed
// micro-kernel. Each batch·head's Kᵀ and V are packed once into B panels,
// straight out of the strided [B,T,D] projections (heads are slices of
// the last dimension, so no split/merge copy exists). A unit then packs
// its ≤ attnQTile query rows into A panels and walks the key tiles: the
// micro-kernel fills a pooled attnQTile×attnKTile score tile (the only
// place scores ever exist), a row-wise float32 streaming softmax turns it
// into probabilities in place, PackA packs them into A panels, and the
// micro-kernel accumulates P·V into the unit's pooled accumulator. On an
// AVX-512F host the softmax's row passes and PackA run vector bodies with
// the bits of their scalar loops. All of it is pooled
// attention scratch (engine Scratch, counted in the engine's Attention
// block), not GEMM operand panels (its Pack block), and none of it is heap
// memory.
//
// Determinism: work is partitioned with shape-only chunking (one unit
// per (batch·head, query-tile) forward, per batch·head backward); every
// score and accumulator update is one micro-kernel chain of fixed depth
// over panels packed from that batch·head alone, in a fixed tile order,
// so results are bitwise identical at any worker count and for a request
// alone or inside a merged batch.
const (
	// attnQTile is the number of query rows a streaming-softmax unit
	// owns; the per-row max/denominator state lives on its stack.
	attnQTile = 32
	// attnKTile is the key-tile width: scores materialize only as an
	// attnQTile×attnKTile pooled tile.
	attnKTile = 64
)

// Fast float32 e^x, written for the streaming softmax (whose arguments
// are ≤ 0 after the running-max shift) and shared by the tanh, sigmoid and
// GELU kernels. This is the CPU analogue of the hardware exp GPU attention
// kernels lean on: e^x = 2ⁿ · 2^(i/64) · e^r with the 2^(i/64) factors
// from a 64-entry table and e^r from a degree-2 polynomial on
// |r| ≤ ln2/128 — a far shorter dependency chain than a full-range
// polynomial. Range reduction subtracts a two-constant ln2/64 split, so
// the result carries ~2e-7 relative error: pure float32 arithmetic,
// deterministic everywhere, and well inside the fused path's agreement
// with a float64 softmax.
const (
	// expLog2e64 is 64·log2(e): one multiply yields x in 1/64-octave units.
	expLog2e64 = 64 * 1.44269504088896341
	// ln2/64 split for extended-precision range reduction (both halves
	// are exact 2⁻⁶ shifts of the classic cephes ln2 split).
	expC1 = 0.693359375 / 64
	expC2 = -2.12194440e-4 / 64
	// expMagic is 1.5·2²³: adding it to a float32 of magnitude below 2²²
	// lands in a binade whose ulp is 1, so the sum's mantissa holds the
	// nearest integer; subtracting it back yields round(64·x·log2e)
	// without any float64 round trip.
	expMagic = 12582912.0
	// expMin is where e^x falls below the smallest normal float32.
	expMin = -87.33654
)

// exp2Bits[i] is the float32 bit pattern of 2^(i/64). Adding n<<23
// (two's-complement, n ∈ [-126, 126]) rescales an entry by 2ⁿ directly in
// exponent bits; the result is a normal number for every x in
// [expMin, 88].
var exp2Bits = func() (t [64]uint32) {
	for i := range t {
		t[i] = math.Float32bits(float32(math.Exp2(float64(i) / 64)))
	}
	return
}()

// expf32 computes one fast exponential. The body is small enough for
// the inliner, so the hot loops call it per element at no cost.
//
// Precondition: x ≤ 88. Past that the rescaled exponent field overflows
// into the sign bit and the result is garbage, not +Inf — every caller
// bounds its argument from above (softmax by the running max, tanh by
// −2|x| ≤ 0, sigmoid and GELU by min(·, 87)). Below expMin, where e^x
// leaves the normal range, the result is flushed to 0 (a probability
// under 1.2e-38 contributes nothing, and subnormal products would stall
// the FMA units); that test is the function's only branch. NaN gives NaN.
//
// The AVX-512F bodies of the activation kernels and of attention's row
// passes repeat this function's compiled code sixteen lanes at a time
// (expf32x16 in exp_amd64.h): the same constants, operations and operand
// order, the flush as a zeroing mask. A change here must be made there
// too; TestActivationVectorMatchesScalar (and its exhaustive sweep) and
// TestAttentionRowPassesMatchScalar fail until it is.
func expf32(x float32) float32 {
	if x < expMin {
		return 0
	}
	kf := x*expLog2e64 + expMagic - expMagic
	k := int32(kf)
	r := x - kf*expC1 - kf*expC2
	p := 1 + r + 0.5*r*r
	return p * math.Float32frombits(exp2Bits[k&63]+uint32(k>>6)<<23)
}

// The streaming softmax's passes over a score tile: row i of len(m) rows
// is st[i·ld : i·ld+w]. Each runs a vector body over the first w&^15
// elements of every row and finishes the rest with its scalar loop, which
// is the whole pass without AVX-512F; both give the same bits.

// attnTileMax raises m[i] to the largest of row i's scores under s > m,
// so a NaN never becomes the max; of equal values the first seen stays
// (+0 and −0 compare equal, and the vector body may keep either).
func attnTileMax(st []float32, ld, w int, m []float32) {
	j0 := attnVecCols(st, ld, w, len(m))
	if j0 > 0 {
		rowsMaxAsm(&st[0], int64(ld), int64(j0), int64(len(m)), &m[0])
	}
	for i := range m {
		mi := m[i]
		for _, s := range st[i*ld+j0 : i*ld+w] {
			if s > mi {
				mi = s
			}
		}
		m[i] = mi
	}
}

// attnTileExp replaces every score s of row i with its probability
// weight expf32(s−m[i]) and adds the weights to l[i]: each quad's float32
// sum ((p0+p1)+p2)+p3 (error ~1e-7 relative), in order, to the float64
// running total, then each element past the last quad.
func attnTileExp(st []float32, ld, w int, m []float32, l []float64) {
	j0 := attnVecCols(st, ld, w, len(m))
	if j0 > 0 {
		rowsExpAsm(&st[0], int64(ld), int64(j0), int64(len(m)), &m[0], &l[:len(m)][0])
	}
	for i, mi := range m {
		row := st[i*ld : i*ld+w]
		li := l[i]
		j := j0
		for ; j+4 <= w; j += 4 {
			q := (*[4]float32)(row[j:])
			p0 := expf32(q[0] - mi)
			p1 := expf32(q[1] - mi)
			p2 := expf32(q[2] - mi)
			p3 := expf32(q[3] - mi)
			li += float64(p0 + p1 + p2 + p3)
			q[0], q[1], q[2], q[3] = p0, p1, p2, p3
		}
		for ; j < w; j++ {
			p := expf32(row[j] - mi)
			li += float64(p)
			row[j] = p
		}
		l[i] = li
	}
}

// attnTileStore stores len(inv) output rows from the accumulator:
// dst[i·ldd+x] = acc[i·w+x]·inv[i]·scale, for the inverse denominators
// and the dequantization scale.
func attnTileStore(dst []float32, ldd int, acc []float32, w int, inv []float32, scale float32) {
	j0 := attnVecCols(dst, ldd, w, len(inv))
	if j0 > 0 {
		_ = acc[len(inv)*w-1]
		storeRowsAsm(&dst[0], int64(ldd), &acc[0], int64(w), int64(j0), int64(len(inv)), &inv[0], scale)
	}
	for i, r := range inv {
		drow, arow := dst[i*ldd:i*ldd+w], acc[i*w:(i+1)*w]
		for x := j0; x < w; x++ {
			drow[x] = arow[x] * r * scale
		}
	}
}

// attnVecCols returns how many leading elements of each of rows rows of
// width w, ld apart in x, the vector bodies take: w&^15 when they run,
// else 0. It bounds-checks the last element of x they touch.
func attnVecCols(x []float32, ld, w, rows int) int {
	if !vecActivations || w < 16 || rows == 0 {
		return 0
	}
	_ = x[(rows-1)*ld+w-1]
	return w &^ 15
}

// expRowScale replaces every score in row with scale·e^(score−m) — the
// backward pass's probability reconstruction from the saved row max and
// inverse denominator.
func expRowScale(row []float32, m, scale float32) {
	for j, s := range row {
		row[j] = scale * expf32(s-m)
	}
}

// scoreTile fills st[i*w+j] = scale · q_(i0+i) · k_(j0+j) for a
// rows×w tile, reading head-h slices directly out of the [T,D]-strided
// projections (qoff/koff are the flat offsets of row 0's head slice).
// Four output dots per pass share one streaming read of the query row,
// each dot keeping its own serial accumulator. Only the backward's
// recomputation uses it; the forward's scores come from the micro-kernel.
func scoreTile(st, qd, kd []float32, qoff, koff, rows, w, i0, j0, d, dh int, scale float32) {
	for i := 0; i < rows; i++ {
		qrow := qd[qoff+(i0+i)*d : qoff+(i0+i)*d+dh]
		srow := st[i*w : (i+1)*w]
		j := 0
		for ; j+4 <= w; j += 4 {
			base := koff + (j0+j)*d
			// Reslicing to len(qrow) lets the compiler drop the bounds
			// checks inside the dot loop.
			k0 := kd[base : base+dh][:len(qrow)]
			k1 := kd[base+d : base+d+dh][:len(qrow)]
			k2 := kd[base+2*d : base+2*d+dh][:len(qrow)]
			k3 := kd[base+3*d : base+3*d+dh][:len(qrow)]
			var s0, s1, s2, s3 float32
			for l, ql := range qrow {
				s0 += ql * k0[l]
				s1 += ql * k1[l]
				s2 += ql * k2[l]
				s3 += ql * k3[l]
			}
			sq := srow[j : j+4 : j+4]
			sq[0] = scale * s0
			sq[1] = scale * s1
			sq[2] = scale * s2
			sq[3] = scale * s3
		}
		for ; j < w; j++ {
			krow := kd[koff+(j0+j)*d : koff+(j0+j)*d+dh]
			var s float32
			for l, ql := range qrow {
				s += ql * krow[l]
			}
			srow[j] = scale * s
		}
	}
}

// Attention computes fused multi-head scaled-dot-product attention:
// out[B,Tq,D] = softmax(scale · Q·Kᵀ) · V per head, with q [B,Tq,D] and
// k, v [B,Tk,D] still in merged-head layout. One forward serves taped and
// untaped calls; a taped call also saves each query row's final max and
// inverse denominator, from which the backward (a single tape step)
// recomputes score tiles instead of taping the probabilities.
//
// Numerics: float32 except the float64 softmax denominators. Each score
// and each P·V partial sum is one fused-multiply-add chain on amd64 (the
// portable kernel rounds multiply and add separately), so outputs agree
// with a float64 evaluation to ~5e-7 of the largest output, not bitwise
// with the scalar loops of earlier releases. Under f16/i8 the q, k, v
// panels are quantized as they are packed, with the scales folded into
// the score scale and the output store.
func (c *Ctx) Attention(q, k, v *Var, heads int, scale float32) *Var {
	assertRank(q, 3, "Attention")
	assertRank(k, 3, "Attention")
	assertRank(v, 3, "Attention")
	b, tq, d := q.Value.Dim(0), q.Value.Dim(1), q.Value.Dim(2)
	tk := k.Value.Dim(1)
	if k.Value.Dim(0) != b || v.Value.Dim(0) != b || k.Value.Dim(2) != d || v.Value.Dim(2) != d || v.Value.Dim(1) != tk {
		panic(fmt.Sprintf("ops: Attention shapes q%v k%v v%v", q.Value.Shape(), k.Value.Shape(), v.Value.Shape()))
	}
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("ops: Attention dim %d not divisible by %d heads", d, heads))
	}
	dh := d / heads
	bh := b * heads
	c.emitP(kernels.AttentionSpec(fmt.Sprintf("attention_%dx%dx%dx%d", bh, tq, tk, dh), bh, tq, tk, dh, attnQTile, attnKTile))
	out := c.outUninit([]int{b, tq, d}, q, k, v)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	e.CountAttention()
	qd, kd, vd, od := q.Value.Data(), k.Value.Data(), v.Value.Data(), out.Value.Data()
	shared := e.NewScratch()
	defer shared.Release()
	// Mixed precision quantizes where the GEMM core does: every Q, Kᵀ and
	// V panel is put on the precision's grid in place right after it is
	// packed (quantizePanel), while score tiles, the streaming softmax
	// and the softmax·V product keep accumulating in f32. Each request
	// segment's q/k/v scales (the whole batch unless a merged batch runs
	// at i8) are calibrated on its f32 projections, so the grids — and
	// therefore every output bit — match the request run alone. For i8
	// the panels hold integer levels: the q/k scales fold into the batch
	// index's score scale (applied once per finished dot, like the NT
	// GEMM) and the v scale into its output store. For f16 every scale is
	// 1 and the output rows are stored through the f16 grid.
	prec := c.prec
	e.CountLowp(prec)
	scales := shared.GetUninit(4 * b)
	qScales, kScales, vScales, scoreScales := scales[:b], scales[b:2*b], scales[2*b:3*b], scales[3*b:]
	for _, s := range c.i8Segments(b) {
		sq, sk, sv := float32(1), float32(1), float32(1)
		if prec == precision.I8 {
			sq = precision.I8Scale(precision.MaxAbs(qd[s.lo*tq*d : s.hi*tq*d]))
			sk = precision.I8Scale(precision.MaxAbs(kd[s.lo*tk*d : s.hi*tk*d]))
			sv = precision.I8Scale(precision.MaxAbs(vd[s.lo*tk*d : s.hi*tk*d]))
		}
		for bi := s.lo; bi < s.hi; bi++ {
			qScales[bi], kScales[bi], vScales[bi] = sq, sk, sv
			scoreScales[bi] = scale * sq * sk
		}
	}
	taping := c.taping(q, k, v)
	// The backward recomputes probabilities from the final running max
	// and denominator of every query row; both are captured by the
	// closure, so they are allocated normally, never pooled.
	var rowMax, rowInvL []float32
	if taping {
		rowMax = make([]float32, bh*tq)
		rowInvL = make([]float32, bh*tq)
	}
	// Every query tile of a batch·head multiplies against the same keys
	// and values, so their B panels are packed once per batch·head, before
	// the tiles run: Kᵀ as one [dh × Tk] operand (a key tile is attnKTile/NR
	// whole panels of it), V as one [w × dh] operand per key tile — the
	// reduction depth of a tile's P·V product is the tile's own width.
	kLen, vRow := gemm.LenB(dh, tk), gemm.LenB(1, dh)
	kvLen := kLen + tk*vRow
	kv := shared.GetUninit(bh * kvLen)
	e.ParallelFor(bh, 1, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			bi := u / heads
			koff := bi*tk*d + u%heads*dh
			kp, vp := kv[u*kvLen:u*kvLen+kLen], kv[u*kvLen+kLen:(u+1)*kvLen]
			gemm.PackBT(kp, kd[koff:], dh, tk, d)
			quantizePanel(prec, kp, kScales[bi])
			for j0 := 0; j0 < tk; j0 += attnKTile {
				gemm.PackB(vp[j0*vRow:], vd[koff+j0*d:], min(attnKTile, tk-j0), dh, d)
			}
			quantizePanel(prec, vp, vScales[bi])
		}
	})
	negInf := float32(math.Inf(-1))
	nqt := (tq + attnQTile - 1) / attnQTile
	e.ParallelFor(bh*nqt, 1, func(lo, hi int) {
		sc := e.NewScratch()
		defer sc.Release()
		qa := sc.GetUninit(gemm.LenA(attnQTile, dh))
		st := sc.GetUninit(attnQTile * attnKTile)
		pa := sc.GetUninit(gemm.LenA(attnQTile, attnKTile))
		acc := sc.GetUninit(attnQTile * dh)
		// Per-row streaming-softmax state: running max and (float64)
		// running denominator, fixed-size on the stack, and a key tile's
		// new maxima.
		var mbuf, mnew [attnQTile]float32
		var lbuf [attnQTile]float64
		for u := lo; u < hi; u++ {
			bi, h := u/nqt/heads, u/nqt%heads
			i0 := (u % nqt) * attnQTile
			rows := min(attnQTile, tq-i0)
			qoff := bi*tq*d + h*dh
			kp := kv[(u/nqt)*kvLen:]
			vp := kp[kLen:]
			sScale, oScale := scoreScales[bi], vScales[bi]
			gemm.PackA(qa, qd[qoff+i0*d:], rows, dh, d)
			quantizePanel(prec, qa[:gemm.LenA(rows, dh)], qScales[bi])
			for i := 0; i < rows; i++ {
				mbuf[i], lbuf[i] = negInf, 0
			}
			clear(acc[:rows*dh])
			// Fixed ascending key-tile order; every score and every
			// accumulator update is one micro-kernel chain over a fixed
			// depth, and each row's max and denominator update serially,
			// so the result is a pure function of this batch·head's inputs.
			for j0 := 0; j0 < tk; j0 += attnKTile {
				w := min(attnKTile, tk-j0)
				// S = scale·Q·Kᵀ for this tile, scale applied once per
				// finished dot (MulPanels accumulates, hence the clear).
				clear(st[:rows*attnKTile])
				gemm.MulPanels(st, attnKTile, qa, kp[j0*dh:], rows, dh, w, sScale)
				copy(mnew[:rows], mbuf[:rows])
				attnTileMax(st, attnKTile, w, mnew[:rows])
				for i := 0; i < rows; i++ {
					if m := mnew[i]; m > mbuf[i] {
						// The max moved: rescale previous contributions.
						if lbuf[i] != 0 {
							al := expf32(mbuf[i] - m)
							lbuf[i] *= float64(al)
							accRow := acc[i*dh : (i+1)*dh]
							for x := range accRow {
								accRow[x] *= al
							}
						}
						mbuf[i] = m
					}
				}
				attnTileExp(st, attnKTile, w, mbuf[:rows], lbuf[:rows])
				// P's A panels, rows past the tile's edge zero-filled:
				// they multiply into tile lanes nobody stores, and the
				// panel is fully written (the pool's NaN-poison mode).
				gemm.PackA(pa, st, rows, w, attnKTile)
				// O += P·V over this tile's w keys.
				gemm.MulPanels(acc, dh, pa, vp[j0*vRow:], rows, w, dh, 1)
			}
			var inv [attnQTile]float32
			for i := 0; i < rows; i++ {
				inv[i] = float32(1 / lbuf[i])
			}
			// oScale is 1 except under i8 (the v dequantization);
			// multiplying by exactly 1 is a bitwise identity, so the f32
			// path is unchanged.
			attnTileStore(od[qoff+i0*d:], d, acc, dh, inv[:rows], oScale)
			for i := 0; i < rows; i++ {
				if prec == precision.F16 {
					orow := od[qoff+(i0+i)*d : qoff+(i0+i)*d+dh]
					precision.RoundF16Slice(orow, orow)
				}
				if taping {
					rowMax[(bi*heads+h)*tq+i0+i] = mbuf[i]
					rowInvL[(bi*heads+h)*tq+i0+i] = inv[i]
				}
			}
		}
	})
	if taping {
		// The backward recomputes score tiles from the full-precision
		// projections (straight-through gradients under a low-precision
		// policy; exact under f32).
		c.tapeStep(out, func() {
			c.attentionBackward(e, q, k, v, out, rowMax, rowInvL, heads, scale)
		})
	}
	return out
}

// quantizePanel puts a packed f32 panel on prec's grid in place: the
// float16 grid, or the int8 levels of scale s, kept in float32 (products
// of levels are ≤ 127·127 and float32 holds integers exactly up to 2²⁴,
// so a score dot over a head of up to 1040 lanes is the sum an
// int8×int8→int32 MAC array produces). Both maps are element-wise and
// send 0 to 0, so a packed panel quantizes to the panel of the quantized
// operand, padding included. f32 leaves the panel as it is.
func quantizePanel(prec precision.Type, p []float32, s float32) {
	switch prec {
	case precision.F16:
		precision.RoundF16Slice(p, p)
	case precision.I8:
		precision.QuantizeI8(p, p, s)
	}
}

// attentionBackward is the fused backward: one pass per (batch·head)
// that recomputes score tiles (from pooled scratch, nothing taped),
// rebuilds each probability from the saved row max / inverse
// denominator, and accumulates all three input gradients in place:
//
//	dV += Pᵀ·dO,  dS = P ∘ (dO·Vᵀ − rowsum(dO ∘ O)),
//	dQ += scale·dS·K,  dK += scale·dSᵀ·Q.
//
// Units partition over batch·head only: a head's dK/dV rows accumulate
// across its query tiles, which must happen in one fixed serial order
// for bitwise determinism.
func (c *Ctx) attentionBackward(e *engine.Engine, q, k, v, out *Var, rowMax, rowInvL []float32, heads int, scale float32) {
	b, tq, d := q.Value.Dim(0), q.Value.Dim(1), q.Value.Dim(2)
	tk := k.Value.Dim(1)
	dh := d / heads
	qd, kd, vd := q.Value.Data(), k.Value.Data(), v.Value.Data()
	od, g := out.Value.Data(), out.Grad.Data()
	var qg, kg, vg []float32
	if q.NeedGrad {
		qg = q.EnsureGrad().Data()
	}
	if k.NeedGrad {
		kg = k.EnsureGrad().Data()
	}
	if v.NeedGrad {
		vg = v.EnsureGrad().Data()
	}
	e.ParallelFor(b*heads, 1, func(lo, hi int) {
		sc := e.NewScratch()
		defer sc.Release()
		st := sc.GetUninit(attnQTile * attnKTile)
		dsum := sc.GetUninit(tq)
		for u := lo; u < hi; u++ {
			bi, h := u/heads, u%heads
			qoff := bi*tq*d + h*dh
			koff := bi*tk*d + h*dh
			// dsum[i] = dO_i · O_i (the softmax-backward row dot).
			for i := 0; i < tq; i++ {
				grow := g[qoff+i*d : qoff+i*d+dh]
				orow := od[qoff+i*d : qoff+i*d+dh]
				var s float32
				for x, gx := range grow {
					s += gx * orow[x]
				}
				dsum[i] = s
			}
			for i0 := 0; i0 < tq; i0 += attnQTile {
				rows := min(attnQTile, tq-i0)
				for j0 := 0; j0 < tk; j0 += attnKTile {
					w := min(attnKTile, tk-j0)
					scoreTile(st, qd, kd, qoff, koff, rows, w, i0, j0, d, dh, scale)
					for i := 0; i < rows; i++ {
						t := i0 + i
						grow := g[qoff+t*d : qoff+t*d+dh]
						qrow := qd[qoff+t*d : qoff+t*d+dh]
						var qgrow []float32
						if qg != nil {
							qgrow = qg[qoff+t*d : qoff+t*d+dh]
						}
						di := dsum[t]
						srow := st[i*w : (i+1)*w]
						// Rebuild the probabilities from the saved row
						// max and inverse denominator, in place.
						expRowScale(srow, rowMax[u*tq+t], rowInvL[u*tq+t])
						for j, p := range srow {
							if p == 0 {
								continue
							}
							kbase := koff + (j0+j)*d
							if vg != nil {
								vgrow := vg[kbase : kbase+dh]
								for x, gx := range grow {
									vgrow[x] += p * gx
								}
							}
							// dp = dO_i · V_j, then dS with scale folded.
							vrow := vd[kbase : kbase+dh]
							var dp float32
							for x, gx := range grow {
								dp += gx * vrow[x]
							}
							ds := p * (dp - di) * scale
							if qgrow != nil {
								krow := kd[kbase : kbase+dh]
								for x, kx := range krow {
									qgrow[x] += ds * kx
								}
							}
							if kg != nil {
								kgrow := kg[kbase : kbase+dh]
								for x, qx := range qrow {
									kgrow[x] += ds * qx
								}
							}
						}
					}
				}
			}
		}
	})
}
