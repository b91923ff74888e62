package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to a [C,H,W] input.
type ConvGeom struct {
	C, H, W    int // input channels, height, width
	KH, KW     int // kernel size
	Stride     int
	Pad        int
	OutH, OutW int // derived output size
}

// Geom computes the output geometry for the given input and window
// parameters. It panics if the window never fits.
func Geom(c, h, w, kh, kw, stride, pad int) ConvGeom {
	if stride <= 0 {
		panic(fmt.Sprintf("tensor: stride %d must be positive", stride))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv window k=(%d,%d) stride=%d pad=%d does not fit input %dx%d", kh, kw, stride, pad, h, w))
	}
	return ConvGeom{C: c, H: h, W: w, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: oh, OutW: ow}
}

// validRange returns the half-open range [lo, hi) of output positions
// o in [0, n) whose input coordinate o*stride + k - pad falls inside
// [0, size). Because the coordinate grows with o the valid positions are
// contiguous, so the lowering loops can hoist the per-element bounds
// test out of the inner loop: everything outside the range is padding.
func validRange(n, size, k, stride, pad int) (lo, hi int) {
	lo = ceilDivNonNeg(pad-k, stride)
	hi = min(ceilDivNonNeg(size+pad-k, stride), n)
	return min(lo, hi), hi
}

// ceilDivNonNeg returns ⌈a/b⌉ for b > 0, clamped below at 0.
func ceilDivNonNeg(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// im2colSample lowers one [C,H,W] sample xs into the column block that
// starts at dst[0], whose rows are rowStride apart. Every cell of the
// block is written — padding cells get an explicit zero — so dst may
// hold stale values. The per-row valid output range is hoisted out of
// the inner loop, which makes stride 1 a plain copy.
func im2colSample[E Num](dst []E, rowStride int, xs []E, g ConvGeom) {
	for c := 0; c < g.C; c++ {
		for ki := 0; ki < g.KH; ki++ {
			oiLo, oiHi := validRange(g.OutH, g.H, ki, g.Stride, g.Pad)
			for kj := 0; kj < g.KW; kj++ {
				ojLo, ojHi := validRange(g.OutW, g.W, kj, g.Stride, g.Pad)
				base := ((c*g.KH+ki)*g.KW + kj) * rowStride
				for oi := 0; oi < g.OutH; oi++ {
					orow := dst[base+oi*g.OutW : base+(oi+1)*g.OutW]
					if oi < oiLo || oi >= oiHi || ojLo == ojHi {
						clear(orow)
						continue
					}
					clear(orow[:ojLo])
					clear(orow[ojHi:])
					ii := oi*g.Stride + ki - g.Pad
					xrow := xs[(c*g.H+ii)*g.W : (c*g.H+ii+1)*g.W]
					off := kj - g.Pad
					if g.Stride == 1 {
						copy(orow[ojLo:ojHi], xrow[ojLo+off:ojHi+off])
						continue
					}
					for oj := ojLo; oj < ojHi; oj++ {
						orow[oj] = xrow[oj*g.Stride+off]
					}
				}
			}
		}
	}
}

// Im2Col lowers a [C,H,W] input into a [C*KH*KW, OutH*OutW] matrix whose
// columns are the flattened receptive fields, so that convolution becomes
// a single MatMul with the [OC, C*KH*KW] weight matrix. Padding positions
// contribute zeros.
func Im2Col[E Num](x *Dense[E], g ConvGeom) *Dense[E] {
	out := NewOf[E](g.C*g.KH*g.KW, g.OutH*g.OutW)
	Im2ColInto(out.data, x, g)
	return out
}

// Im2ColInto is Im2Col writing into dst, a caller-owned slice of exactly
// C*KH*KW*OutH*OutW elements. Every element is overwritten (padding
// cells with zero), so dst may be a reused buffer holding stale values.
func Im2ColInto[E Num](dst []E, x *Dense[E], g ConvGeom) {
	if x.Rank() != 3 || x.Dim(0) != g.C || x.Dim(1) != g.H || x.Dim(2) != g.W {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match geometry %+v", x.Shape(), g))
	}
	cols := g.OutH * g.OutW
	if want := g.C * g.KH * g.KW * cols; len(dst) != want {
		panic(fmt.Sprintf("tensor: Im2ColInto dst holds %d elements, want %d", len(dst), want))
	}
	im2colSample(dst, cols, x.data, g)
}

// Im2ColBatch lowers a [B,C,H,W] batch into a [C*KH*KW, B*OutH*OutW]
// matrix: sample b's receptive-field columns occupy the contiguous
// column block [b*OutH*OutW, (b+1)*OutH*OutW), each filled with exactly
// the values Im2Col produces for that sample. A convolution over the
// whole batch then becomes a single wide MatMul with the weight matrix,
// and every output column is produced by the same operation sequence as
// the per-sample product, so batched convolution is bit-identical to
// per-sample convolution.
func Im2ColBatch[E Num](x *Dense[E], g ConvGeom) *Dense[E] {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColBatch input %v does not match geometry %+v", x.Shape(), g))
	}
	out := NewOf[E](g.C*g.KH*g.KW, x.Dim(0)*g.OutH*g.OutW)
	Im2ColBatchInto(out.data, x, g)
	return out
}

// Im2ColBatchInto is Im2ColBatch writing into dst, a caller-owned slice
// of exactly C*KH*KW*B*OutH*OutW elements. Every element is overwritten
// (padding cells with zero), so dst may be a reused buffer holding stale
// values from an earlier batch of any size.
func Im2ColBatchInto[E Num](dst []E, x *Dense[E], g ConvGeom) {
	if x.Rank() != 4 || x.Dim(1) != g.C || x.Dim(2) != g.H || x.Dim(3) != g.W {
		panic(fmt.Sprintf("tensor: Im2ColBatch input %v does not match geometry %+v", x.Shape(), g))
	}
	batch := x.Dim(0)
	sampleCols := g.OutH * g.OutW
	cols := batch * sampleCols
	if want := g.C * g.KH * g.KW * cols; len(dst) != want {
		panic(fmt.Sprintf("tensor: Im2ColBatchInto dst holds %d elements, want %d", len(dst), want))
	}
	sampleSize := g.C * g.H * g.W
	for b := 0; b < batch; b++ {
		im2colSample(dst[b*sampleCols:], cols, x.data[b*sampleSize:(b+1)*sampleSize], g)
	}
}

// Col2Im scatters a [C*KH*KW, OutH*OutW] column matrix back into a
// [C,H,W] tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used for the convolution input gradient.
func Col2Im[E Num](col *Dense[E], g ConvGeom) *Dense[E] {
	x := NewOf[E](g.C, g.H, g.W)
	Col2ImInto(x.data, col, g)
	return x
}

// Col2ImInto is Col2Im writing into dst, a caller-owned slice of exactly
// C*H*W elements. dst is zeroed first and then receives every column
// contribution in the order Col2Im adds them, so the result is
// bit-identical to Col2Im whatever dst held before. The valid output
// range of each kernel row is hoisted out of the inner loop, which makes
// stride 1 a branch-free add.
func Col2ImInto[E Num](dst []E, col *Dense[E], g ConvGeom) {
	rows := g.C * g.KH * g.KW
	cols := g.OutH * g.OutW
	if col.Rank() != 2 || col.Dim(0) != rows || col.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match geometry %+v", col.Shape(), g))
	}
	if want := g.C * g.H * g.W; len(dst) != want {
		panic(fmt.Sprintf("tensor: Col2ImInto dst holds %d elements, want %d", len(dst), want))
	}
	clear(dst)
	cd := col.data
	for c := 0; c < g.C; c++ {
		for ki := 0; ki < g.KH; ki++ {
			oiLo, oiHi := validRange(g.OutH, g.H, ki, g.Stride, g.Pad)
			for kj := 0; kj < g.KW; kj++ {
				ojLo, ojHi := validRange(g.OutW, g.W, kj, g.Stride, g.Pad)
				if ojLo == ojHi {
					continue
				}
				base := ((c*g.KH+ki)*g.KW + kj) * cols
				off := kj - g.Pad
				for oi := oiLo; oi < oiHi; oi++ {
					ii := oi*g.Stride + ki - g.Pad
					xrow := dst[(c*g.H+ii)*g.W : (c*g.H+ii+1)*g.W]
					crow := cd[base+oi*g.OutW+ojLo : base+oi*g.OutW+ojHi]
					if g.Stride == 1 {
						xr := xrow[ojLo+off : ojHi+off]
						for j, v := range crow {
							xr[j] += v
						}
						continue
					}
					for j, v := range crow {
						xrow[(ojLo+j)*g.Stride+off] += v
					}
				}
			}
		}
	}
}
