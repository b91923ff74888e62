package nn

import "repro/internal/tensor"

// Shared convolution GEMM plumbing for the float64 layer and its float32
// inference clone. Both precisions lower through im2col and run the same
// generic fused-epilogue kernels, so the next kernel change edits one
// site.
//
// The batched forward used to run one wide [OutC, B*hw] GEMM, a separate
// bias pass, and a full-tensor permute into [B, OutC, hw]. The fused
// form writes each sample's [OutC, hw] block straight into its slab of
// the [B, OutC, OH, OW] output through a strided destination view, with
// the bias added in the kernel epilogue — one memory pass, no permute.
// Bit-identity with the old sequence: output element (s, o, t) is the
// dot of weight row o with column s*hw+t of the im2col matrix — the
// strided per-sample view walks exactly those elements in exactly the
// wide kernel's ascending-k order, with the same zero-skip — and the
// epilogue adds bias[o] after the full-k accumulation, the op order of
// the old separate bias pass.

// convForwardSample computes one sample's [OutC, hw] convolution output
// with the bias fused into the GEMM epilogue.
func convForwardSample[E tensor.Num](w, bias, col *tensor.Dense[E], outC, hw int) *tensor.Dense[E] {
	out := tensor.NewOf[E](outC, hw)
	dst := tensor.Mat[E]{Data: out.Data(), Rows: outC, Cols: hw, Stride: hw}
	tensor.MatMulIntoStrided(dst, w, tensor.MatOf(col), bias.Data(), false)
	return out
}

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
