package ops

import (
	"fmt"
	"math"
	"sync/atomic"

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
// into probabilities written in A-panel layout, and the micro-kernel
// accumulates P·V into the unit's pooled accumulator. All of it is pooled
// attention scratch (AttentionStats), not GEMM operand panels
// (gemm.PackStats), and none of it is heap memory.
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

// attnActivity counts fused-attention work for /v1/stats: operator
// invocations and the scratch the kernel checks out from the engine's
// buffer pool (the memory that replaced the materialized score matrix).
var attnActivity struct {
	fusedCalls       atomic.Int64
	scratchCheckouts atomic.Int64
	scratchBytes     atomic.Int64
}

// AttentionActivity is a snapshot of fused-attention counters.
type AttentionActivity struct {
	// FusedCalls is the number of fused Ctx.Attention executions
	// (eager forwards; analytic spec-only calls are not counted).
	FusedCalls int64 `json:"fused_calls"`
	// ScratchCheckouts / ScratchBytes measure pooled attention scratch
	// drawn for score tiles, accumulators and backward recomputation.
	ScratchCheckouts int64 `json:"scratch_checkouts"`
	ScratchBytes     int64 `json:"scratch_bytes"`
}

// AttentionStats snapshots the process-wide fused-attention counters.
func AttentionStats() AttentionActivity {
	return AttentionActivity{
		FusedCalls:       attnActivity.fusedCalls.Load(),
		ScratchCheckouts: attnActivity.scratchCheckouts.Load(),
		ScratchBytes:     attnActivity.scratchBytes.Load(),
	}
}

// attnScratch draws pooled attention scratch through a Scratch checkout,
// counting it for AttentionStats.
func attnScratch(sc *engine.Scratch, n int) []float32 {
	attnActivity.scratchCheckouts.Add(1)
	attnActivity.scratchBytes.Add(int64(n) * 4)
	return sc.GetUninit(n)
}

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
// with the scalar loops of earlier releases. Under f16/i8 the kernel reads
// pooled low-precision copies of q, k, v with the scales folded into the
// score scale and the output store.
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
	out := c.out([]int{b, tq, d}, q, k, v)
	if out.Value.Abstract() {
		return out
	}
	attnActivity.fusedCalls.Add(1)
	e := c.engine()
	qd, kd, vd, od := q.Value.Data(), k.Value.Data(), v.Value.Data(), out.Value.Data()
	// Mixed precision: the kernel reads pooled low-precision copies of
	// the projections while score tiles, the streaming softmax and the
	// softmax·V product keep accumulating in f32. For i8 the q/k scales
	// fold into the score scale (applied once per finished dot, like the
	// NT GEMM) and the v scale folds into the final output store; for
	// f16 both folds are ×1 and the output is re-stored through the f16
	// grid afterwards.
	scoreScale, outScale := scale, float32(1)
	prec := c.prec
	var lowQ, lowK, lowV []float32
	// scoreScales/outScales carry per-batch-index scales when a merged
	// cross-request i8 batch calibrates each request's segment separately;
	// nil (the usual case) means the scalar scales apply to every index.
	var scoreScales, outScales []float32
	if prec != precision.F32 {
		if segs := c.i8Segments(b); segs != nil {
			// Per-segment quantization: each request's q/k/v slices get the
			// same per-tensor scales they would standalone, so the i8 grids
			// — and therefore every output bit — match the unbatched run.
			lowQ = e.GetUninit(len(qd))
			defer e.Put(lowQ)
			lowK = e.GetUninit(len(kd))
			defer e.Put(lowK)
			lowV = e.GetUninit(len(vd))
			defer e.Put(lowV)
			precActivity.quantBytes.Add(int64(len(qd)+len(kd)+len(vd)) * 4)
			scoreScales = make([]float32, b)
			outScales = make([]float32, b)
			for _, s := range segs {
				countLowp(prec)
				sq := quantizeInto(e, prec, lowQ[s.lo*tq*d:s.hi*tq*d], qd[s.lo*tq*d:s.hi*tq*d])
				sk := quantizeInto(e, prec, lowK[s.lo*tk*d:s.hi*tk*d], kd[s.lo*tk*d:s.hi*tk*d])
				sv := quantizeInto(e, prec, lowV[s.lo*tk*d:s.hi*tk*d], vd[s.lo*tk*d:s.hi*tk*d])
				for bi := s.lo; bi < s.hi; bi++ {
					scoreScales[bi] = scale * sq * sk
					outScales[bi] = sv
				}
			}
			qd, kd, vd = lowQ, lowK, lowV
		} else {
			countLowp(prec)
			var sq, sk, sv float32
			lowQ, sq = quantizeOperand(e, prec, qd)
			defer e.Put(lowQ)
			lowK, sk = quantizeOperand(e, prec, kd)
			defer e.Put(lowK)
			lowV, sv = quantizeOperand(e, prec, vd)
			defer e.Put(lowV)
			qd, kd, vd = lowQ, lowK, lowV
			scoreScale = scale * sq * sk
			outScale = sv
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
	shared := e.NewScratch()
	defer shared.Release()
	kv := attnScratch(shared, bh*kvLen)
	e.ParallelFor(bh, 1, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			koff := u/heads*tk*d + u%heads*dh
			gemm.PackBT(kv[u*kvLen:], kd[koff:], dh, tk, d)
			vp := kv[u*kvLen+kLen:]
			for j0 := 0; j0 < tk; j0 += attnKTile {
				gemm.PackB(vp[j0*vRow:], vd[koff+j0*d:], min(attnKTile, tk-j0), dh, d)
			}
		}
	})
	negInf := float32(math.Inf(-1))
	nqt := (tq + attnQTile - 1) / attnQTile
	e.ParallelFor(bh*nqt, 1, func(lo, hi int) {
		sc := e.NewScratch()
		defer sc.Release()
		qa := attnScratch(sc, gemm.LenA(attnQTile, dh))
		st := attnScratch(sc, attnQTile*attnKTile)
		pa := attnScratch(sc, gemm.LenA(attnQTile, attnKTile))
		acc := attnScratch(sc, attnQTile*dh)
		// Per-row streaming-softmax state: running max and (float64)
		// running denominator, fixed-size on the stack.
		var mbuf [attnQTile]float32
		var lbuf [attnQTile]float64
		for u := lo; u < hi; u++ {
			bi, h := u/nqt/heads, u/nqt%heads
			i0 := (u % nqt) * attnQTile
			rows := min(attnQTile, tq-i0)
			qoff := bi*tq*d + h*dh
			kp := kv[(u/nqt)*kvLen:]
			vp := kp[kLen:]
			sScale, oScale := scoreScale, outScale
			if scoreScales != nil {
				sScale, oScale = scoreScales[bi], outScales[bi]
			}
			gemm.PackA(qa, qd[qoff+i0*d:], rows, dh, d)
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
				for i := 0; i < rows; i++ {
					srow := st[i*attnKTile : i*attnKTile+w]
					m := mbuf[i]
					for _, s := range srow {
						if s > m {
							m = s
						}
					}
					if m > mbuf[i] {
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
					// One pass exponentiates the scores (the expf32 body
					// inlined per element; a call per score would dominate)
					// straight into row i of P's A panels — pa[(i/MR·w +
					// j)·MR + i%MR] — so the probabilities never exist in
					// any other layout. The denominator adds each quad's
					// float32 sum (error ~1e-7 relative) to the float64
					// running total.
					prow := pa[i/gemm.MR*w*gemm.MR+i%gemm.MR:]
					l := lbuf[i]
					j := 0
					for ; j+4 <= w; j += 4 {
						p0 := expf32(srow[j] - m)
						p1 := expf32(srow[j+1] - m)
						p2 := expf32(srow[j+2] - m)
						p3 := expf32(srow[j+3] - m)
						l += float64(p0 + p1 + p2 + p3)
						pq := prow[j*gemm.MR : j*gemm.MR+3*gemm.MR+1]
						pq[0], pq[gemm.MR], pq[2*gemm.MR], pq[3*gemm.MR] = p0, p1, p2, p3
					}
					for ; j < w; j++ {
						p := expf32(srow[j] - m)
						l += float64(p)
						prow[j*gemm.MR] = p
					}
					lbuf[i] = l
				}
				// Rows past the tile's edge in the last A panel multiply
				// into tile lanes nobody stores; zero them so the panel is
				// fully written (the pool's NaN-poison mode).
				for i := rows; i%gemm.MR != 0; i++ {
					prow := pa[i/gemm.MR*w*gemm.MR+i%gemm.MR:]
					for j := 0; j < w; j++ {
						prow[j*gemm.MR] = 0
					}
				}
				// O += P·V over this tile's w keys.
				gemm.MulPanels(acc, dh, pa, vp[j0*vRow:], rows, w, dh, 1)
			}
			for i := 0; i < rows; i++ {
				inv := float32(1 / lbuf[i])
				accRow := acc[i*dh : (i+1)*dh]
				orow := od[qoff+(i0+i)*d : qoff+(i0+i)*d+dh]
				// outScale is 1 except under i8 (the v dequantization);
				// multiplying by exactly 1 is a bitwise identity, so the
				// f32 path is unchanged.
				for x, ax := range accRow {
					orow[x] = ax * inv * oScale
				}
				if taping {
					rowMax[(bi*heads+h)*tq+i0+i] = mbuf[i]
					rowInvL[(bi*heads+h)*tq+i0+i] = inv
				}
			}
		}
	})
	if prec == precision.F16 {
		roundSliceF16(e, od)
	}
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
		st := attnScratch(sc, attnQTile*attnKTile)
		dsum := attnScratch(sc, tq)
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
