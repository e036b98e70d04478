package gemm

import (
	"unsafe"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

// Panel packing. Each routine fills a pooled panel buffer completely
// (valid lanes from the operand, edge padding with zeros), so panels are
// safe under the pool's NaN-poison debug mode. Packing parallelizes over
// whole panels with a shape-only grain, preserving the engine's
// determinism contract (each panel element is written by exactly one
// chunk, and the written value does not depend on chunking).

// packPanelGrain returns the ParallelFor grain for packing npanels
// panels of elemsPer elements each, targeting packGrain elements per
// chunk (≥1 panel).
func packPanelGrain(elemsPer int) int {
	g := packGrain / elemsPer
	if g < 1 {
		g = 1
	}
	return g
}

// PackA packs an m×k row-major block of a, whose rows are lda ≥ k
// elements apart, into row panels ap[(ip*k+l)*MR+r] = a[(ip*MR+r)*lda+l],
// zero-padding rows past m. It runs on the calling goroutine and fills
// all LenA(m, k) elements, for callers that partition their own work and
// own their scratch (fused attention packs head slices straight out of
// the strided [B,T,D] projections, and its probabilities out of the
// score tile); packAF32 is the same routine per engine chunk. With
// AVX-512F the first k&^15 columns of every panel, padding rows included,
// are one 4×16 transpose per step (packAAsm); the loop below packs the
// rest. Both copy bits, NaN payloads included.
func PackA(ap, a []float32, m, k, lda int) {
	l0 := 0
	if asmWide && m > 0 && k >= 16 {
		_ = a[(m-1)*lda+k-1]
		_ = ap[LenA(m, k)-1]
		l0 = k &^ 15
		packAAsm(&ap[0], &a[0], int64(m), int64(k), int64(lda), int64(l0))
		if l0 == k {
			return
		}
	}
	for ip := 0; ip*MR < m; ip++ {
		p := ap[(ip*k+l0)*MR : (ip+1)*k*MR]
		i0 := ip * MR
		rows := min(MR, m-i0)
		// a[i*lda + l]: interleave the panel's rows l-major — a full
		// panel's four rows together, so every step writes one 16-byte run.
		if rows == MR {
			a0 := a[i0*lda+l0 : i0*lda+k]
			a1 := a[(i0+1)*lda+l0:][:len(a0)]
			a2 := a[(i0+2)*lda+l0:][:len(a0)]
			a3 := a[(i0+3)*lda+l0:][:len(a0)]
			for l, v := range a0 {
				q := (*[MR]float32)(p[l*MR:])
				q[0], q[1], q[2], q[3] = v, a1[l], a2[l], a3[l]
			}
			continue
		}
		for r := 0; r < rows; r++ {
			ar := a[(i0+r)*lda+l0 : (i0+r)*lda+k]
			for l, v := range ar {
				p[l*MR+r] = v
			}
		}
		for r := rows; r < MR; r++ {
			for l := 0; l < k-l0; l++ {
				p[l*MR+r] = 0
			}
		}
	}
}

// packAF32 packs A[m,k] (or its transpose when aT: a stored [k,m]) into
// row panels ap[(ip*k+l)*MR+r] = A[ip*MR+r][l], zero-padding rows past m.
func packAF32(e *engine.Engine, ap, a []float32, m, k int, aT bool) {
	e.ParallelFor(panelsA(m), packPanelGrain(k*MR), func(lo, hi int) {
		if !aT {
			PackA(ap[lo*k*MR:hi*k*MR], a[lo*MR*k:], min(m, hi*MR)-lo*MR, k, k)
			return
		}
		for ip := lo; ip < hi; ip++ {
			p := ap[ip*k*MR : (ip+1)*k*MR]
			i0 := ip * MR
			rows := min(MR, m-i0)
			// a[l*m + i]: walk l-major, gathering the panel's rows.
			for l := 0; l < k; l++ {
				al := a[l*m+i0 : l*m+i0+rows]
				pl := p[l*MR : l*MR+MR]
				for r := 0; r < rows; r++ {
					pl[r] = al[r]
				}
				for r := rows; r < MR; r++ {
					pl[r] = 0
				}
			}
		}
	})
}

// PackB packs a k×n row-major block of b, whose rows are ldb ≥ n elements
// apart, into column panels bp[(jp*k+l)*NR+c] = b[l*ldb+jp*NR+c],
// zero-padding columns past n: PackA's serial, caller-owned counterpart
// for the B operand, filling all LenB(k, n) elements.
func PackB(bp, b []float32, k, n, ldb int) {
	for jp := 0; jp*NR < n; jp++ {
		p := bp[jp*k*NR : (jp+1)*k*NR]
		j0 := jp * NR
		cols := min(NR, n-j0)
		// Panel rows are contiguous operand slices.
		for l := 0; l < k; l++ {
			pl := p[l*NR : l*NR+NR]
			copy(pl, b[l*ldb+j0:l*ldb+j0+cols])
			for c := cols; c < NR; c++ {
				pl[c] = 0
			}
		}
	}
}

// PackBT is PackB for a B stored transposed: b holds n rows of k elements,
// ldb ≥ k apart, and bp[(jp*k+l)*NR+c] = b[(jp*NR+c)*ldb+l]. With
// AVX-512F the first k&^15 panel rows of every panel, zero columns
// included, are one 16×16 transpose per step (packBTAsm); the loop below
// packs the rest. Both copy bits, NaN payloads included.
func PackBT(bp, b []float32, k, n, ldb int) {
	l0 := 0
	if asmWide && n > 0 && k >= 16 {
		_ = b[(n-1)*ldb+k-1]
		_ = bp[LenB(k, n)-1]
		l0 = k &^ 15
		packBTAsm(&bp[0], &b[0], int64(n), int64(k), int64(ldb), int64(l0))
		if l0 == k {
			return
		}
	}
	for jp := 0; jp*NR < n; jp++ {
		p := bp[(jp*k+l0)*NR : (jp+1)*k*NR]
		j0 := jp * NR
		cols := min(NR, n-j0)
		// Each panel column is a contiguous operand row; four columns at
		// a time turn the stride-NR scatter into 16-byte runs.
		c := 0
		for ; c+4 <= cols; c += 4 {
			b0 := b[(j0+c)*ldb+l0 : (j0+c)*ldb+k]
			b1 := b[(j0+c+1)*ldb+l0:][:len(b0)]
			b2 := b[(j0+c+2)*ldb+l0:][:len(b0)]
			b3 := b[(j0+c+3)*ldb+l0:][:len(b0)]
			for l, v := range b0 {
				q := (*[4]float32)(p[l*NR+c:])
				q[0], q[1], q[2], q[3] = v, b1[l], b2[l], b3[l]
			}
		}
		for ; c < cols; c++ {
			bc := b[(j0+c)*ldb+l0 : (j0+c)*ldb+k]
			for l, v := range bc {
				p[l*NR+c] = v
			}
		}
		for c := cols; c < NR; c++ {
			for l := 0; l < k-l0; l++ {
				p[l*NR+c] = 0
			}
		}
	}
}

// ConvShape is the geometry of a 2-D convolution over one [C,H,W] sample:
// a KH×KW window moved Stride apart over the image zero-padded by Pad on
// every side, giving an OH×OW output plane. As a GEMM the sample is the B
// operand [K, OH·OW] whose column j = oy·OW+ox holds output pixel
// (oy, ox)'s patch, row l = (c·KH+ky)·KW+kx being
// image[c][oy·Stride+ky−Pad][ox·Stride+kx−Pad], or 0 outside the image.
// That matrix is never stored: PackBConv gathers its panels directly.
type ConvShape struct {
	C, H, W     int
	KH, KW      int
	Stride, Pad int
	OH, OW      int
}

// K is the reduction depth of the convolution's GEMM: C·KH·KW.
func (g ConvShape) K() int { return g.C * g.KH * g.KW }

// PackBConv is PackB for the patch matrix of one sample img [C,H,W]: it
// packs columns [j0, j0+n) — n consecutive output pixels, which may span
// output rows — into column panels bp[(jp*K+l)*NR+c], filling all
// LenB(g.K(), n) elements (image border and columns past n with zeros). A
// 1×1 stride-1 unpadded window's patch matrix is the image itself, and
// that case is a plain PackB. With AVX-512F a stride-1 window of at most
// NR×NR taps takes packBConvWide; every other shape runs the per-run loop
// below. Both copy bits, so the panels are the same.
func PackBConv(bp, img []float32, g ConvShape, j0, n int) {
	k := g.K()
	if g.KH == 1 && g.KW == 1 && g.Stride == 1 && g.Pad == 0 {
		PackB(bp, img[j0:], k, n, g.H*g.W)
		return
	}
	if asmWide && n > 0 && k > 0 && g.Stride == 1 && g.KH <= NR && g.KW <= NR {
		packBConvWide(bp, img, g, j0, n)
		return
	}
	for jp := 0; jp*NR < n; jp++ {
		p := bp[jp*k*NR : (jp+1)*k*NR]
		cols := min(NR, n-jp*NR)
		// A panel's pixels are one run per output row they touch.
		for c0 := 0; c0 < cols; {
			j := j0 + jp*NR + c0
			oy, ox := j/g.OW, j%g.OW
			run := min(cols-c0, g.OW-ox)
			packPatchRun(p[c0:], img, g, oy, ox, run)
			c0 += run
		}
		if cols < NR {
			for l := 0; l < k; l++ {
				clear(p[l*NR+cols : (l+1)*NR])
			}
		}
	}
}

// convRuns is packBConvWide's table for one panel, one entry per
// output-row run r the panel's pixels span: lane c of tap (ky, kx) reads
// channel-plane element base[r] + ky·W + kx + c when tap row ky is inside
// the image (rowOK[r][ky]) and colMask[r][kx] has bit c set, that is,
// when lane c is one of the run's and its image column is inside the
// image. Its layout is packConvAsm's: base at byte 0, rowOK at 64,
// colMask at 320.
type convRuns struct {
	base    [NR]int32
	rowOK   [NR][NR]bool
	colMask [NR][NR]uint16
}

// packBConvWide is PackBConv for a stride-1 window on AVX-512F. Per panel
// it fills a convRuns table — per run, one base offset, one row test per
// ky and one column mask per kx, with no division — and packConvAsm
// writes the panel from it with one masked load and one 64-byte store per
// (channel, tap, run). A table of KH+KW+1 values a run, not one entry per
// (run, tap), keeps the table cheap beside the gather on one-channel
// layers. A masked-off lane reads no memory (AVX-512 suppresses its
// faults), so only enabled lanes must address the image, and they do:
// their row and column are inside it. Columns past n are in no run and
// store zeros.
func packBConvWide(bp, img []float32, g ConvShape, j0, n int) {
	k, plane := g.K(), g.H*g.W
	_ = img[g.C*plane-1]
	_ = bp[LenB(k, n)-1]
	var t convRuns
	oy, ox := j0/g.OW, j0%g.OW
	for jp := 0; jp*NR < n; jp++ {
		cols := min(NR, n-jp*NR)
		runs := 0
		for c0 := 0; c0 < cols; runs++ {
			run := min(cols-c0, g.OW-ox)
			// Lane c of tap (ky, kx) reads image row oy+ky−Pad, column
			// ix0+kx+c; the run's lanes are [c0, c0+run).
			ix0 := ox - g.Pad - c0
			t.base[runs] = int32((oy-g.Pad)*g.W + ix0)
			ok := t.rowOK[runs][:g.KH]
			for ky := range ok {
				iy := oy + ky - g.Pad
				ok[ky] = iy >= 0 && iy < g.H
			}
			// Away from the side borders every column mask is the run's
			// lanes.
			cm := t.colMask[runs][:g.KW]
			if ix0+c0 >= 0 && ix0+g.KW-1+c0+run <= g.W {
				m := laneBits(c0, c0+run)
				for kx := range cm {
					cm[kx] = m
				}
			} else {
				for kx := range cm {
					cm[kx] = laneBits(max(c0, -(ix0+kx)), min(c0+run, g.W-(ix0+kx)))
				}
			}
			c0 += run
			if ox += run; ox == g.OW {
				oy, ox = oy+1, 0
			}
		}
		packConvAsm(&bp[jp*k*NR], &img[0], &t, int64(g.C), int64(g.KH), int64(g.KW), int64(runs), int64(g.W), int64(plane))
	}
}

// laneBits is the lane mask of lanes [lo, hi), 0 ≤ lo and hi ≤ NR, and
// zero when the range is empty.
func laneBits(lo, hi int) uint16 {
	if lo >= hi {
		return 0
	}
	return uint16(uint32(1)<<(hi&31) - uint32(1)<<(lo&31))
}

// packPatchRun writes the patches of run consecutive pixels of output row
// oy, starting at column ox, into panel columns p[l*NR : l*NR+run] for
// every l. Each (c, ky, kx) reads one image row at a fixed offset, so a
// run is zeros where the window hangs over the border and otherwise a
// contiguous (stride 1) or strided slice of that row.
func packPatchRun(p, img []float32, g ConvShape, oy, ox, run int) {
	l := 0
	for ci := 0; ci < g.C; ci++ {
		for ky := 0; ky < g.KH; ky++ {
			iy := oy*g.Stride + ky - g.Pad
			if iy < 0 || iy >= g.H {
				for kx := 0; kx < g.KW; kx++ {
					clear(p[l*NR : l*NR+run])
					l++
				}
				continue
			}
			row := img[(ci*g.H+iy)*g.W : (ci*g.H+iy+1)*g.W]
			for kx := 0; kx < g.KW; kx++ {
				dst := p[l*NR : l*NR+run]
				l++
				// ix is dst[c]'s image column; [lo, hi) are the c inside
				// the image.
				ix := ox*g.Stride + kx - g.Pad
				if g.Stride == 1 && run == NR && ix >= 0 && ix+NR <= g.W {
					// A whole panel row inside the image: one fixed-size
					// copy, no call.
					*(*[NR]float32)(dst) = *(*[NR]float32)(row[ix:])
					continue
				}
				lo, hi := 0, run
				if ix < 0 {
					lo = min(run, (-ix+g.Stride-1)/g.Stride)
				}
				if last := ix + (run-1)*g.Stride; last >= g.W {
					hi = max(lo, run-(last-g.W)/g.Stride-1)
				}
				clear(dst[:lo])
				if g.Stride > 1 {
					for c := lo; c < hi; c++ {
						dst[c] = row[ix+c*g.Stride]
					}
				} else if lo < hi {
					copy(dst[lo:hi], row[ix+lo:])
				}
				clear(dst[hi:])
			}
		}
	}
}

// packBF32 packs B[k,n] (or its transpose when bT: b stored [n,k]) into
// column panels bp[(jp*k+l)*NR+c] = B[l][jp*NR+c], zero-padding columns
// past n.
func packBF32(e *engine.Engine, bp, b []float32, k, n int, bT bool) {
	e.ParallelFor(panelsB(n), packPanelGrain(k*NR), func(lo, hi int) {
		p, cols := bp[lo*k*NR:hi*k*NR], min(n, hi*NR)-lo*NR
		if bT {
			PackBT(p, b[lo*NR*k:], k, cols, k)
		} else {
			PackB(p, b[lo*NR:], k, cols, n)
		}
	})
}

// packAF16 is packAF32 with every element rounded through the float16
// grid (the f16 storage emulation applied at pack time).
func packAF16(e *engine.Engine, ap, a []float32, m, k int, aT bool) {
	packAF32(e, ap, a, m, k, aT)
	nip := (m + MR - 1) / MR
	e.ParallelFor(nip, packPanelGrain(k*MR), func(lo, hi int) {
		seg := ap[lo*k*MR : hi*k*MR]
		precision.RoundF16Slice(seg, seg)
	})
}

// packBF16F32 is packBF32 rounded through the float16 grid, stored as
// float32 — the fallback B layout when no f16 conversion kernel exists.
func packBF16F32(e *engine.Engine, bp, b []float32, k, n int, bT bool) {
	packBF32(e, bp, b, k, n, bT)
	njp := (n + NR - 1) / NR
	e.ParallelFor(njp, packPanelGrain(k*NR), func(lo, hi int) {
		seg := bp[lo*k*NR : hi*k*NR]
		precision.RoundF16Slice(seg, seg)
	})
}

// packBU16 packs B into column panels of raw float16 bits for the
// vcvtph2ps kernel — same indexing as packBF32, half the bytes.
func packBU16(e *engine.Engine, bp []uint16, b []float32, k, n int, bT bool) {
	njp := (n + NR - 1) / NR
	e.ParallelFor(njp, packPanelGrain(k*NR), func(lo, hi int) {
		for jp := lo; jp < hi; jp++ {
			p := bp[jp*k*NR : (jp+1)*k*NR]
			j0 := jp * NR
			cols := n - j0
			if cols > NR {
				cols = NR
			}
			if bT {
				for c := 0; c < cols; c++ {
					bc := b[(j0+c)*k : (j0+c)*k+k]
					for l, v := range bc {
						p[l*NR+c] = precision.F16Bits(v)
					}
				}
				for c := cols; c < NR; c++ {
					for l := 0; l < k; l++ {
						p[l*NR+c] = 0
					}
				}
			} else {
				for l := 0; l < k; l++ {
					bl := b[l*n+j0 : l*n+j0+cols]
					pl := p[l*NR : l*NR+NR]
					precision.F16BitsSlice(pl, bl)
					for c := cols; c < NR; c++ {
						pl[c] = 0
					}
				}
			}
		}
	})
}

// packAI16 quantizes A to int8 levels (the precision.QuantizeI8 grid at
// scale sa) widened to int16, packed as consecutive K pairs:
// ap[(ip*kp+l2)*MR*2 + r*2 + p] = Qa[ip*MR+r][2*l2+p]. The pair layout
// matches vpmaddwd's horizontal i16-pair dot; odd K pads a zero level.
func packAI16(e *engine.Engine, ap []int16, a []float32, m, k int, sa float32, aT bool) {
	kp := (k + 1) / 2
	inv := 1 / sa
	nip := (m + MR - 1) / MR
	e.ParallelFor(nip, packPanelGrain(kp*2*MR), func(lo, hi int) {
		for ip := lo; ip < hi; ip++ {
			p := ap[ip*kp*2*MR : (ip+1)*kp*2*MR]
			i0 := ip * MR
			rows := m - i0
			if rows > MR {
				rows = MR
			}
			if !aT && rows == MR {
				// Interior panel, row-major operand: quantize four
				// contiguous rows straight into pair groups, writing every
				// panel element exactly once.
				a0 := a[i0*k : i0*k+k]
				a1 := a[(i0+1)*k : (i0+1)*k+k]
				a2 := a[(i0+2)*k : (i0+2)*k+k]
				a3 := a[(i0+3)*k : (i0+3)*k+k]
				o, l := 0, 0
				for ; l+1 < k; l += 2 {
					q := p[o : o+2*MR : o+2*MR]
					q[0] = int16(precision.I8Level(a0[l], inv))
					q[1] = int16(precision.I8Level(a0[l+1], inv))
					q[2] = int16(precision.I8Level(a1[l], inv))
					q[3] = int16(precision.I8Level(a1[l+1], inv))
					q[4] = int16(precision.I8Level(a2[l], inv))
					q[5] = int16(precision.I8Level(a2[l+1], inv))
					q[6] = int16(precision.I8Level(a3[l], inv))
					q[7] = int16(precision.I8Level(a3[l+1], inv))
					o += 2 * MR
				}
				if l < k { // odd K: second lane of the last pair is zero
					q := p[o : o+2*MR : o+2*MR]
					q[0], q[1] = int16(precision.I8Level(a0[l], inv)), 0
					q[2], q[3] = int16(precision.I8Level(a1[l], inv)), 0
					q[4], q[5] = int16(precision.I8Level(a2[l], inv)), 0
					q[6], q[7] = int16(precision.I8Level(a3[l], inv)), 0
				}
				continue
			}
			// Edge or transposed panel: walk pair groups, zeroing the
			// padded rows and the odd-K lane in place.
			for l2 := 0; l2 < kp; l2++ {
				q := p[l2*2*MR : (l2+1)*2*MR]
				l0 := 2 * l2
				for r := 0; r < MR; r++ {
					var v0, v1 int16
					if r < rows {
						if aT {
							v0 = int16(precision.I8Level(a[l0*m+i0+r], inv))
							if l0+1 < k {
								v1 = int16(precision.I8Level(a[(l0+1)*m+i0+r], inv))
							}
						} else {
							v0 = int16(precision.I8Level(a[(i0+r)*k+l0], inv))
							if l0+1 < k {
								v1 = int16(precision.I8Level(a[(i0+r)*k+l0+1], inv))
							}
						}
					}
					q[r*2] = v0
					q[r*2+1] = v1
				}
			}
		}
	})
}

// packBI8 quantizes B to int8 levels at scale sb, packed as consecutive
// K pairs: bp[(jp*kp+l2)*NR*2 + c*2 + p] = Qb[2*l2+p][jp*NR+c]. The
// kernel widens these to int16 at load (vpmovsxbw), pairing each column's
// two K levels for vpmaddwd.
func packBI8(e *engine.Engine, bp []int8, b []float32, k, n int, sb float32, bT bool) {
	kp := (k + 1) / 2
	inv := 1 / sb
	njp := (n + NR - 1) / NR
	e.ParallelFor(njp, packPanelGrain(kp*2*NR), func(lo, hi int) {
		for jp := lo; jp < hi; jp++ {
			p := bp[jp*kp*2*NR : (jp+1)*kp*2*NR]
			j0 := jp * NR
			cols := n - j0
			if cols > NR {
				cols = NR
			}
			if !bT && cols == NR {
				// Interior panel, row-major operand: interleave two
				// contiguous operand rows per pair group, writing every
				// panel element exactly once.
				o, l := 0, 0
				for ; l+1 < k; l += 2 {
					b0 := b[l*n+j0 : l*n+j0+NR]
					b1 := b[(l+1)*n+j0 : (l+1)*n+j0+NR]
					q := p[o : o+2*NR : o+2*NR]
					for c := 0; c < NR; c++ {
						q[c*2] = precision.I8Level(b0[c], inv)
						q[c*2+1] = precision.I8Level(b1[c], inv)
					}
					o += 2 * NR
				}
				if l < k { // odd K: second lane of the last pair is zero
					b0 := b[l*n+j0 : l*n+j0+NR]
					q := p[o : o+2*NR : o+2*NR]
					for c := 0; c < NR; c++ {
						q[c*2] = precision.I8Level(b0[c], inv)
						q[c*2+1] = 0
					}
				}
				continue
			}
			// Edge or transposed panel: walk pair groups, zeroing the
			// padded columns and the odd-K lane in place.
			for l2 := 0; l2 < kp; l2++ {
				q := p[l2*2*NR : (l2+1)*2*NR]
				l0 := 2 * l2
				for c := 0; c < NR; c++ {
					var v0, v1 int8
					if c < cols {
						if bT {
							v0 = precision.I8Level(b[(j0+c)*k+l0], inv)
							if l0+1 < k {
								v1 = precision.I8Level(b[(j0+c)*k+l0+1], inv)
							}
						} else {
							v0 = precision.I8Level(b[l0*n+j0+c], inv)
							if l0+1 < k {
								v1 = precision.I8Level(b[(l0+1)*n+j0+c], inv)
							}
						}
					}
					q[c*2] = v0
					q[c*2+1] = v1
				}
			}
		}
	})
}

// f16BitsInPlace converts finished f32 B panels to the raw-float16-bits
// layout packBU16 produces — same indexing, half the bytes — inside the
// memory they occupy, and returns that view. Element i's two bytes land in
// float i/2, which the ascending walk has already read.
func f16BitsInPlace(bp []float32) []uint16 {
	up := unsafe.Slice((*uint16)(unsafe.Pointer(&bp[0])), len(bp))
	precision.F16BitsSlice(up, bp)
	return up
}

// i8PairsInPlace converts finished f32 B panels of depth k to the
// int8 K-pair layout packBI8 produces at scale 1/inv, inside the memory
// they occupy, and returns that view. A pair group is assembled on the
// stack before it is stored: group 0 of panel 0 overlaps the two float
// rows it is read from; every later group lands in floats already read.
func i8PairsInPlace(bp []float32, k int, inv float32) []int8 {
	kp := pairsI8(k)
	ip := unsafe.Slice((*int8)(unsafe.Pointer(&bp[0])), len(bp)*4)
	njp := len(bp) / (k * NR)
	var zero [NR]float32 // odd K pairs the last row with zero levels
	for jp := 0; jp < njp; jp++ {
		src := bp[jp*k*NR : (jp+1)*k*NR]
		dst := ip[jp*kp*2*NR : (jp+1)*kp*2*NR]
		var q [2 * NR]int8
		for l2 := 0; l2 < kp; l2++ {
			b0, b1 := (*[NR]float32)(src[2*l2*NR:]), &zero
			if 2*l2+1 < k {
				b1 = (*[NR]float32)(src[(2*l2+1)*NR:])
			}
			for c := 0; c < NR; c++ {
				q[c*2] = precision.I8Level(b0[c], inv)
				q[c*2+1] = precision.I8Level(b1[c], inv)
			}
			copy(dst[l2*2*NR:], q[:])
		}
	}
	return ip[:njp*kp*2*NR]
}
