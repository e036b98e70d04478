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

// packAT is PackA for an A stored transposed: a holds k rows of m
// elements, lda ≥ m apart, and ap[(ip*k+l)*MR+r] = a[l*lda+ip*MR+r].
func packAT(ap, a []float32, m, k, lda int) {
	for ip := 0; ip*MR < m; ip++ {
		p := ap[ip*k*MR : (ip+1)*k*MR]
		i0 := ip * MR
		rows := min(MR, m-i0)
		// a[l*lda + i]: walk l-major, gathering the panel's rows.
		for l := 0; l < k; l++ {
			al := a[l*lda+i0 : l*lda+i0+rows]
			pl := p[l*MR : l*MR+MR]
			for r := 0; r < rows; r++ {
				pl[r] = al[r]
			}
			for r := rows; r < MR; r++ {
				pl[r] = 0
			}
		}
	}
}

// packAF32 packs A[m,k] (or its transpose when aT: a stored [k,m]) into
// row panels ap[(ip*k+l)*MR+r] = A[ip*MR+r][l], zero-padding rows past m.
// With f16 each chunk rounds the panels it packed through the float16
// grid, in place and while they are in cache: the f16 A layout.
func packAF32(e *engine.Engine, ap, a []float32, m, k int, aT, f16 bool) {
	e.ParallelFor(panelsA(m), packPanelGrain(k*MR), func(lo, hi int) {
		p, rows, a0 := ap[lo*k*MR:hi*k*MR], min(m, hi*MR)-lo*MR, a[lo*MR*k:]
		if aT {
			packAT(p, a[lo*MR:], rows, k, m)
		} else {
			PackA(p, a0, rows, k, k)
		}
		if f16 {
			precision.RoundF16Slice(p, p)
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
				lo, hi := g.inside(ix, run)
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

// inside returns the lanes [lo, hi) of a run of run output pixels whose
// tap column, starting at image column ix and moving Stride apart, lies
// inside the image.
func (g ConvShape) inside(ix, run int) (lo, hi int) {
	lo, hi = 0, run
	if ix < 0 {
		lo = min(run, (-ix+g.Stride-1)/g.Stride)
	}
	if last := ix + (run-1)*g.Stride; last >= g.W {
		hi = max(lo, run-(last-g.W)/g.Stride-1)
	}
	return lo, hi
}

// scatterPatches is PackBConv's adjoint: it adds column c of the K×n
// matrix d, whose rows are ld apart — a value for each patch entry of
// output pixel j0+c — onto the element of img [C,H,W] that packPatchRun
// reads that entry from, and drops the entries over the border. It walks
// the pixels as packPatchRun's runs, so every element's sum has one order.
func scatterPatches(img, d []float32, ld int, g ConvShape, j0, n int) {
	for c0 := 0; c0 < n; {
		oy, ox := (j0+c0)/g.OW, (j0+c0)%g.OW
		run := min(n-c0, g.OW-ox)
		l := 0
		for ci := 0; ci < g.C; ci++ {
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.H {
					l += g.KW
					continue
				}
				row := img[(ci*g.H+iy)*g.W : (ci*g.H+iy+1)*g.W]
				for kx := 0; kx < g.KW; kx++ {
					src := d[l*ld+c0 : l*ld+c0+run]
					l++
					ix := ox*g.Stride + kx - g.Pad
					lo, hi := g.inside(ix, run)
					if g.Stride == 1 {
						if lo < hi {
							dst := row[ix+lo : ix+hi]
							for c, v := range src[lo:hi] {
								dst[c] += v
							}
						}
						continue
					}
					for c := lo; c < hi; c++ {
						row[ix+c*g.Stride] += src[c]
					}
				}
			}
		}
		c0 += run
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

// Low precision. A reduced-precision panel is the f32 panel of its
// operand, finished in the engine chunk that packed it by the one
// conversion of its layout:
//
//	f16 A   values on the float16 grid                  precision.RoundF16Slice, in place
//	f16 B   raw float16 bits, or values on the grid     f16Rows (the layout f16Bits chooses)
//	i8 B    int8 K pairs                                i8Pairs
//	i8 A    int16 K pairs of int8 levels                i16Pairs
//
// Per-call products, the panels a PackedB keeps and the convolutions'
// gathered panels all run these conversions, so each layout has one
// definition. Every conversion may write over the f32 panels it reads (a
// convolution finishes its gathered block in place); a product's panels
// are finished into their own buffer, from an f32 block packed finishRows
// panel rows at a time in L1-resident scratch, or — a full panel of an
// untransposed B, whose panel rows are operand rows — straight from the
// operand.

// finishRows is the panel rows of an f32 block packed for a finish: 8 KiB
// of B panel, 2 KiB of A. Even, so no K pair straddles two blocks, and a
// multiple of 16, so PackA's and PackBT's vector bodies cover the block.
const finishRows = 128

// packBLow packs B[k,n] (or its transpose when bT: b stored [n,k]) into
// reduced-precision column panels bp: f16 panel memory (float32, in the
// layout f16Panels views) or int8 K pairs at scale 1/inv. A full panel of
// an untransposed B is finished from the operand rows, which are its
// panel rows; any other panel is packed by PackB or PackBT into a block
// per finishRows panel rows, and finished from there.
func packBLow[T float32 | int8](e *engine.Engine, bp []T, b []float32, k, n int, bT bool, inv float32) {
	per := len(bp) / panelsB(n)
	e.ParallelFor(panelsB(n), packPanelGrain(k*NR), func(lo, hi int) {
		var blk [finishRows * NR]float32
		for jp := lo; jp < hi; jp++ {
			p, j0 := bp[jp*per:(jp+1)*per], jp*NR
			if !bT && j0+NR <= n {
				finishB(p, 0, b[j0:], k, n, inv)
				continue
			}
			for l0 := 0; l0 < k; l0 += finishRows {
				kb := min(finishRows, k-l0)
				if bT {
					PackBT(blk[:kb*NR], b[j0*k+l0:], kb, min(NR, n-j0), k)
				} else {
					PackB(blk[:kb*NR], b[l0*n+j0:], kb, n-j0, n)
				}
				finishB(p, l0, blk[:kb*NR], kb, NR, inv)
			}
		}
	})
}

// packAI8 packs A into row panels of int8 levels at scale 1/inv, widened
// to int16 and laid out as i16Pairs' K pairs, the layout of vpmaddwd's
// horizontal pair dot. Each panel is the f32 panel, packed by PackA (or
// packAT) finishRows columns at a time into an L1-resident block and
// finished from there in the same chunk.
func packAI8(e *engine.Engine, ap []int16, a []float32, m, k int, aT bool, inv float32) {
	kp := pairsI8(k)
	e.ParallelFor(panelsA(m), packPanelGrain(k*MR), func(lo, hi int) {
		var blk [finishRows * MR]float32
		for ip := lo; ip < hi; ip++ {
			p, i0 := ap[ip*kp*2*MR:(ip+1)*kp*2*MR], ip*MR
			rows := min(MR, m-i0)
			for l0 := 0; l0 < k; l0 += finishRows {
				kb := min(finishRows, k-l0)
				if aT {
					packAT(blk[:kb*MR], a[l0*m+i0:], rows, kb, m)
				} else {
					PackA(blk[:kb*MR], a[i0*k+l0:], rows, kb, k)
				}
				i16Pairs(p[l0*MR:], blk[:kb*MR], kb, inv)
			}
		}
	})
}

// finishB writes rows [l0, l0+k) (l0 even) of B panel p in p's layout —
// f16 panel memory, or int8 K pairs at scale 1/inv — from the f32 panel
// rows src[l*ld:][:NR].
func finishB[T float32 | int8](p []T, l0 int, src []float32, k, ld int, inv float32) {
	switch p := any(p).(type) {
	case []float32:
		finishF16(p, l0, src, k, ld)
	case []int8:
		i8Pairs(p[l0*NR:], src, k, ld, inv)
	}
}

// f16Bits is the one place the f16 B layout is chosen. Where the
// vcvtph2ps kernels run (asmF16), an f16 product multiplies B panels of
// raw float16 bits — half the bytes, converted exactly in the kernel —
// and elsewhere B panels of float32 values on the float16 grid: the same
// numbers. Either layout lives in float32 memory, the bits two to a float,
// so per-call scratch, kept panels and a convolution's gathered block hold
// them alike; lenF16 and f16Panels, which finishF16 and mulTilesF16 view
// the memory through, read the choice from here.
func f16Bits() bool { return asmF16 }

// lenF16 is the float32 elements of f16 panel memory a k×n B occupies.
func lenF16(k, n int) int {
	if f16Bits() {
		return LenB(k, n) / 2
	}
	return LenB(k, n)
}

// f16Panels views f16 panel memory mem in its layout: exactly one of h
// (raw float16 bits) and f (values on the float16 grid) is non-nil when
// mem is.
func f16Panels(mem []float32) (h []uint16, f []float32) {
	if f16Bits() && len(mem) > 0 {
		return view[uint16](mem), nil
	}
	return nil, mem
}

// finishF16 writes rows [l0, l0+k) of the f16 B panel whose memory is mem,
// as f16Rows does, in the layout f16Panels views.
func finishF16(mem []float32, l0 int, src []float32, k, ld int) {
	if h, f := f16Panels(mem); h != nil {
		f16Rows(h[l0*NR:], src, k, ld)
	} else {
		f16Rows(f[l0*NR:], src, k, ld)
	}
}

// f16Rows stores k f32 panel rows src[l*ld:][:NR] through the float16
// grid, as raw bits or as float32 values, into dst[l*NR:][:NR]. When
// ld = NR the rows are one run and take one slice conversion, which dst
// may alias as a view of src's memory from its first byte.
func f16Rows[T float32 | uint16](dst []T, src []float32, k, ld int) {
	w := NR
	if ld == NR {
		k, w = 1, k*NR
	}
	switch d := any(dst).(type) {
	case []uint16:
		for l := range k {
			precision.F16BitsSlice(d[l*w:(l+1)*w], src[l*ld:][:w])
		}
	case []float32:
		for l := range k {
			precision.RoundF16Slice(d[l*w:(l+1)*w], src[l*ld:][:w])
		}
	}
}

// i8Pairs writes a B panel of depth k, whose f32 panel rows are
// src[l*ld:][:NR], as int8 levels at scale 1/inv in consecutive K pairs:
// dst[l2*2*NR+c*2+p] = I8Level(src[(2*l2+p)*ld+c]), odd K's last pair's
// second lane zero. The kernel widens the levels to int16 at load
// (vpmovsxbw), pairing each column's two K levels for vpmaddwd. dst may be
// an int8 view of src's memory from its first byte when ld = NR: each
// level is stored over bytes already read, after its float.
func i8Pairs(dst []int8, src []float32, k, ld int, inv float32) {
	var zero [NR]float32
	for l2 := 0; l2 < pairsI8(k); l2++ {
		b0, b1 := (*[NR]float32)(src[2*l2*ld:]), &zero
		if 2*l2+1 < k {
			b1 = (*[NR]float32)(src[(2*l2+1)*ld:])
		}
		q := (*[2 * NR]int8)(dst[l2*2*NR:])
		for c := range NR {
			q[c*2] = precision.I8Level(b0[c], inv)
			q[c*2+1] = precision.I8Level(b1[c], inv)
		}
	}
}

// i16Pairs is i8Pairs' twin for A: it writes an f32 A panel (or block) of
// depth k as int8 levels at scale 1/inv widened to int16, in consecutive K
// pairs: dst[l2*2*MR+r*2+p] = I8Level(src[(2*l2+p)*MR+r]), odd K's last
// pair's second lane zero. dst may be an int16 view of src's memory from
// its first byte, as i8Pairs' may.
func i16Pairs(dst []int16, src []float32, k int, inv float32) {
	var zero [MR]float32
	for l2 := 0; l2 < pairsI8(k); l2++ {
		a0, a1 := (*[MR]float32)(src[2*l2*MR:]), &zero
		if 2*l2+1 < k {
			a1 = (*[MR]float32)(src[(2*l2+1)*MR:])
		}
		q := (*[2 * MR]int16)(dst[l2*2*MR:])
		for r := range MR {
			q[r*2] = int16(precision.I8Level(a0[r], inv))
			q[r*2+1] = int16(precision.I8Level(a1[r], inv))
		}
	}
}

// view reinterprets f32 panel memory, from its first byte, as the panels
// of a narrower element that a finish writes over it.
func view[T uint16 | int16 | int8](mem []float32) []T {
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), len(mem)*4/int(unsafe.Sizeof(z)))
}
