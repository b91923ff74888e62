package nn

import (
	"math"

	"repro/internal/tensor"
)

// Kernels shared by the float64 layers and their float32 inference
// clone (f32.go). Where the two precisions run the same operations on a
// different element type, the body exists once, generic over
// tensor.Num, so a kernel change edits one site and the float32 path
// cannot drift from the float64 one.
//
// Convolution. The batched forward writes each sample's [OutC, hw]
// block straight into its slab of the [B, OutC, OH, OW] output through
// a strided destination view, with the bias added in the GEMM epilogue:
// one memory pass, no permute. Output element (s, o, t) is the dot of
// weight row o with column s*hw+t of the im2col matrix; the strided
// per-sample view walks exactly those elements in ascending-k order with
// the kernel's zero-skip, and the epilogue adds bias[o] after the full-k
// accumulation. So the result does not depend on the batch the sample
// rides in.

// convForwardBatch convolves a whole batch from its cached Im2ColBatch
// matrix into out, a [B, OutC, OutH, OutW] tensor whose stale contents
// the GEMM overwrites. Sample s's columns sit at column offset s*hw of
// the wide [C*K*K, B*hw] matrix (row stride B*hw), and its output
// occupies the contiguous [OutC, hw] slab s of out, so both sides are
// strided views of existing buffers and the whole layer is the GEMM's
// single memory pass. views is scratch for the 2·B views, grown when
// too short and returned for the next call.
func convForwardBatch[E tensor.Num](out, w, bias, colBatch *tensor.Dense[E], b, outC int, g tensor.ConvGeom, views []tensor.Mat[E]) []tensor.Mat[E] {
	hw := g.OutH * g.OutW
	ckk := colBatch.Dim(0)
	if cap(views) < 2*b {
		views = make([]tensor.Mat[E], 2*b)
	}
	views = views[:2*b]
	dsts, cols := views[:b], views[b:]
	od, cb := out.Data(), colBatch.Data()
	for s := 0; s < b; s++ {
		dsts[s] = tensor.Mat[E]{Data: od[s*outC*hw : (s+1)*outC*hw], Rows: outC, Cols: hw, Stride: hw}
		cols[s] = tensor.Mat[E]{Data: cb[s*hw:], Rows: ckk, Cols: hw, Stride: b * hw}
	}
	tensor.MatMulIntoStridedBatch(dsts, cols, w, bias.Data(), false)
	return views
}

// convSampleColView returns the strided view of sample s's column block
// inside a cached [C*K*K, B*hw] Im2ColBatch matrix: the exact matrix
// Im2Col produces for that sample, read in place instead of gathered
// into scratch.
func convSampleColView[E tensor.Num](colBatch *tensor.Dense[E], s, b, hw int) tensor.Mat[E] {
	return tensor.Mat[E]{
		Data:   colBatch.Data()[s*hw:],
		Rows:   colBatch.Dim(0),
		Cols:   hw,
		Stride: b * hw,
	}
}

// addBias adds bias to every row of out, a row-major [B, len(bias)]
// matrix: the dense layer's epilogue after its [B,In]×[Out,In]ᵀ GEMM.
func addBias[E tensor.Num](out, bias []E) {
	for s := 0; s < len(out); s += len(bias) {
		row := out[s : s+len(bias)]
		for o, bv := range bias {
			row[o] += bv
		}
	}
}

// poolForward runs the max-pooling window scan over a [B, C, H, W]
// batch xd, writing each window's max into od and, when argmax is not
// nil, the flat input index (relative to its sample) that won it for
// the backward scatter. The first maximum wins ties.
func poolForward[E tensor.Num](xd, od []E, argmax []int, b int, g tensor.ConvGeom) {
	inSz, outSz := g.C*g.H*g.W, g.C*g.OutH*g.OutW
	for s := 0; s < b; s++ {
		xs, os := xd[s*inSz:(s+1)*inSz], od[s*outSz:(s+1)*outSz]
		oi2 := 0
		for c := 0; c < g.C; c++ {
			chanBase := c * g.H * g.W
			for oi := 0; oi < g.OutH; oi++ {
				for oj := 0; oj < g.OutW; oj++ {
					var best E
					bi := -1
					first := true
					for ki := 0; ki < g.KH; ki++ {
						rowBase := chanBase + (oi*g.Stride+ki)*g.W
						for kj := 0; kj < g.KW; kj++ {
							jj := oj*g.Stride + kj
							if v := xs[rowBase+jj]; first || v > best {
								best, bi = v, rowBase+jj
								first = false
							}
						}
					}
					os[oi2] = best
					if argmax != nil {
						argmax[s*outSz+oi2] = bi
					}
					oi2++
				}
			}
		}
	}
}

// activate writes fn applied elementwise to x into out. Saturating
// functions evaluate in float64 and round once to the element type.
func activate[E tensor.Num](fn Activation, out, x []E) {
	out = out[:len(x)]
	switch fn {
	case ReLU:
		for i, v := range x {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		}
	case Tanh:
		for i, v := range x {
			out[i] = E(math.Tanh(float64(v)))
		}
	case Sigmoid:
		for i, v := range x {
			out[i] = E(1 / (1 + math.Exp(-float64(v))))
		}
	case LeakyReLU:
		for i, v := range x {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = leakySlope * v
			}
		}
	default:
		copy(out, x)
	}
}

// scaleShift writes the affine map a·v + b of every element of x into
// out. The conversion rounds the product before the add, so no fused
// multiply-add can change the result.
func scaleShift[E tensor.Num](out, x []E, a, b E) {
	for i, v := range x {
		out[i] = E(v*a) + b
	}
}
