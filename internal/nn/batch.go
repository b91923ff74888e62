package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// This file adds the real batch dimension to the engine. Every layer
// implements BatchLayer: ForwardBatch/BackwardBatch operate on [B, ...]
// tensors (sample blocks contiguous, row-major), and BackwardSample
// backpropagates one sample of the last ForwardBatch on its own.
//
// The batched paths are *bit-identical* to the per-sample ones:
//
//   - Batched products reuse the serial GEMM kernels with the batch
//     folded into rows or columns, so every output cell is produced by
//     exactly the per-sample instruction sequence (same accumulation
//     order, same zero-skips, multiplication operand order immaterial).
//   - Parameter gradients accumulate across the batch in ascending
//     sample order, the order of the serial per-sample loop.
//
// This is what lets the coverage engine and the suite generators batch
// candidate evaluation while preserving the bit-identical-suite
// guarantee established in PR 1, and composes with the worker pool:
// batch inside a worker, workers across batches.
//
// Buffer ownership. The batched passes write into grow-only workspaces
// owned by the layer instead of allocating per call, so the 30 steps of
// an Algorithm 2 synthesis run allocate almost nothing after the first:
//
//   - A tensor returned by a layer's ForwardBatch, BackwardBatch,
//     BackwardBatchInput or BackwardSample (and by Network.StackBatch,
//     Network.BackwardBatch/BackwardBatchInput/BackwardSample) is owned
//     by that layer. It stays valid until the same network's next pass
//     of the same kind, which overwrites it in place. Callers that keep
//     one longer must Clone it.
//   - Network.ForwardBatch is the exception: its logits are a fresh
//     tensor on every call and never alias an earlier call's, because
//     servers and the coalescer hand them to clients after the clone
//     goes back to its pool.
//   - A workspace grows to the largest batch seen and is re-sliced, not
//     reallocated, for smaller ones. Every kernel that writes one
//     overwrites every element (im2col writes explicit zeros into
//     padding cells; the Col2Im and max-pool scatter targets are zeroed
//     before each scatter), so no pass depends on what an earlier batch
//     of a different size or geometry left behind.
//   - ReleaseBatchState drops every workspace; the next pass regrows
//     them.
//
// Values are computed by the same operations in the same order as with
// fresh tensors, so reuse changes no bits.

// reuse returns a tensor of the given shape backed by t's storage when t
// is large enough — t itself when the shape already matches, so the
// steady state allocates nothing — and a fresh tensor otherwise: the
// grow-only workspace behind every batched pass. The contents are
// stale; callers overwrite every element.
func reuse(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && slices.Equal(t.Shape(), shape) {
		return t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t != nil && cap(t.Data()) >= n {
		return tensor.FromSlice(t.Data()[:n], shape...)
	}
	return tensor.New(shape...)
}

// sampleView returns the [shape...] view of sample s of the batched
// tensor t; one header, where Sample followed by Reshape costs two.
func sampleView(t *tensor.Tensor, s int, shape ...int) *tensor.Tensor {
	n := t.Size() / t.Dim(0)
	return tensor.FromSlice(t.Data()[s*n:(s+1)*n], shape...)
}

// BatchLayer is a Layer that can evaluate a whole [B, ...] batch at
// once. All layers in this package implement it.
type BatchLayer interface {
	Layer
	// ForwardBatch computes the layer output for a [B, ...] batch and
	// caches whatever the batched backward passes need.
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
	// BackwardBatch consumes the [B, ...] gradient with respect to the
	// last ForwardBatch's output, accumulates parameter gradients across
	// the batch in ascending sample order, and returns the [B, ...]
	// gradient with respect to the input.
	BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor
	// BackwardSample backpropagates sample b of the last ForwardBatch:
	// dOut is that sample's (batchless) output gradient, parameter
	// gradients accumulate exactly as the per-sample Backward would, and
	// the sample's input gradient is returned. The coverage extractor
	// uses it to pull per-sample ∇θ out of one batched forward pass.
	BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor
	// BackwardBatchInput is BackwardBatch without parameter-gradient
	// accumulation: the same bit-identical [B, ...] input gradient with
	// the dW/db work skipped — the right backward for input synthesis,
	// which never reads parameter gradients.
	BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor
	// ReleaseBatchState drops whatever per-batch caches and workspaces
	// the layer keeps between batched passes; the next pass rebuilds
	// them.
	ReleaseBatchState()
}

// batchDim returns the leading (batch) dimension of x.
func batchDim(x *tensor.Tensor, name string) int {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s batch input must have a leading batch dimension, got %v", name, x.Shape()))
	}
	return x.Dim(0)
}

// ForwardBatch runs the full stack over a [B, ...] batch and returns the
// [B, classes] logits. Every logits row is bit-identical to Forward on
// that sample alone. The logits are a fresh copy out of the last
// layer's workspace, so they never alias another call's.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.LayerStack {
		bl, ok := l.(BatchLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s (%T) does not support batched evaluation", l.Name(), l))
		}
		x = bl.ForwardBatch(x)
	}
	return x.Clone()
}

// StackBatch copies the same-shaped inputs xs into the network's input
// workspace, a [len(xs), ...] batch for ForwardBatch. Like a layer
// workspace it is reused — valid until the next StackBatch — so a loop
// that restacks every batch allocates nothing in the steady state.
func (n *Network) StackBatch(xs []*tensor.Tensor) *tensor.Tensor {
	if len(xs) == 0 {
		panic("nn: StackBatch of no inputs")
	}
	n.stackShape = append(append(n.stackShape[:0], len(xs)), xs[0].Shape()...)
	n.stack = reuse(n.stack, n.stackShape...)
	tensor.StackInto(n.stack, xs)
	return n.stack
}

// BackwardBatch propagates a [B, classes] logits gradient through the
// stack (after a ForwardBatch), accumulating parameter gradients across
// the batch in ascending sample order — the exact sequence of the serial
// per-sample loop — and returns the [B, ...] input gradient.
func (n *Network) BackwardBatch(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].(BatchLayer).BackwardBatch(d)
	}
	return d
}

// BackwardSample propagates one sample's logits gradient through the
// stack against the caches of the last ForwardBatch, accumulating that
// sample's parameter gradients only. Combined with ZeroGrad per sample
// it yields the same per-sample ∇θ as a per-sample Forward+Backward.
func (n *Network) BackwardSample(b int, dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].(BatchLayer).BackwardSample(b, d)
	}
	return d
}

// BackwardBatchInput propagates a [B, classes] logits gradient through
// the stack like BackwardBatch but skips all parameter-gradient work;
// the returned input gradient is bit-identical. Input synthesis uses it
// — Algorithm 2 descends on the input and never reads ∇θ.
func (n *Network) BackwardBatchInput(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].(BatchLayer).BackwardBatchInput(d)
	}
	return d
}

// ReleaseBatchState drops the per-batch caches and workspaces the
// batched passes keep on each layer (im2col matrices, pass outputs and
// input gradients, activation inputs, pooling winner indexes) and the
// StackBatch input. Call it after a batched workload when the network
// lives on — serialized, served per-sample — so the last batch's
// buffers do not pin heap; the next pass regrows them. A pending
// BackwardBatch/BackwardSample must run before releasing.
func (n *Network) ReleaseBatchState() {
	n.stack = nil
	for _, l := range n.LayerStack {
		if bl, ok := l.(BatchLayer); ok {
			bl.ReleaseBatchState()
		}
	}
}

// PredictBatch runs one batched forward pass and returns the argmax
// class of every sample's logits.
func (n *Network) PredictBatch(x *tensor.Tensor) []int {
	logits := n.ForwardBatch(x)
	b := logits.Dim(0)
	out := make([]int, b)
	for i := 0; i < b; i++ {
		out[i] = logits.Sample(i).Argmax()
	}
	return out
}

// --- Conv2D ---

// ForwardBatch implements BatchLayer. The whole batch is lowered with
// Im2ColBatch into one [C*K*K, B*OutH*OutW] matrix and convolved by the
// fused strided kernel: each sample's [OutC, hw] block is written
// straight into its slab of the [B, OutC, OH, OW] output with the bias
// added in the GEMM epilogue — one memory pass, no separate bias loop,
// no permute (convkernel.go states the bit-identity argument). Every
// output element is computed by the per-sample kernel sequence, so the
// result is bit-identical to per-sample Forward. The column matrix, the
// output and the GEMM views all live in layer workspaces.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC || x.Dim(2) != c.InH || x.Dim(3) != c.InW {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", c.LayerName, c.InC, c.InH, c.InW, x.Shape()))
	}
	b := x.Dim(0)
	c.batchB = b
	c.colBatch = reuse(c.colBatch, c.InC*c.K*c.K, b*c.geom.OutH*c.geom.OutW)
	tensor.Im2ColBatchInto(c.colBatch.Data(), x, c.geom)
	c.outB = reuse(c.outB, b, c.OutC, c.geom.OutH, c.geom.OutW)
	c.views = convForwardBatch(c.outB, c.Weight.W, c.Bias.W, c.colBatch, b, c.OutC, c.geom, c.views)
	return c.outB
}

// ReleaseBatchState implements BatchLayer.
func (c *Conv2D) ReleaseBatchState() {
	c.colBatch, c.batchB = nil, 0
	c.outB, c.dxB, c.dxS, c.dcol, c.views = nil, nil, nil, nil, nil
}

// BackwardSample implements BatchLayer. Sample b's im2col block is read
// in place through a strided view of the cached Im2ColBatch matrix and
// the per-sample gradient products run on it exactly as Backward does,
// so gradients are bit-identical to Forward+Backward on that sample
// alone — with no gather copy.
func (c *Conv2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	c.dxS = reuse(c.dxS, c.InC, c.InH, c.InW)
	c.sampleGrads(b, dOut.Reshape(c.OutC, c.geom.OutH*c.geom.OutW), c.dxS.Data())
	return c.dxS
}

// sampleGrads accumulates sample b's weight and bias gradients from its
// [OutC, hw] output gradient d2 and writes its input gradient into dx;
// the body of BackwardSample and BackwardBatch.
func (c *Conv2D) sampleGrads(b int, d2 *tensor.Tensor, dx []float64) {
	hw := c.geom.OutH * c.geom.OutW
	// dW += d2 · col_bᵀ, dotted straight out of the wide column matrix.
	tensor.MatMulTBIntoStrided(c.Weight.Grad, d2, convSampleColView(c.colBatch, b, c.batchB, hw), true)
	// db += row sums of dOut.
	bd := c.Bias.Grad.Data()
	dd := d2.Data()
	for o := 0; o < c.OutC; o++ {
		bd[o] += tensor.Sum(dd[o*hw : o*hw+hw])
	}
	c.inputGrad(d2, dx)
}

// inputGrad writes one sample's input gradient Col2Im(Wᵀ·d2) into dx
// through the layer's dcol scratch; shared by every backward pass.
// MatMulTAInto zeroes dcol before accumulating, exactly as MatMulTA
// starts from a fresh zero matrix.
func (c *Conv2D) inputGrad(d2 *tensor.Tensor, dx []float64) {
	c.dcol = reuse(c.dcol, c.InC*c.K*c.K, c.geom.OutH*c.geom.OutW)
	tensor.MatMulTAInto(c.dcol, c.Weight.W, d2, false)
	tensor.Col2ImInto(dx, c.dcol, c.geom)
}

// BackwardBatch implements BatchLayer. Convolution weight gradients must
// accumulate per sample to stay bit-identical to the serial loop (the
// per-sample partial sums associate differently from one long reduction),
// so the batch walks samples in ascending order; each sample's products
// are full-size GEMMs already. Each sample's input gradient lands
// directly in its slab of the layer's [B, C, H, W] workspace.
func (c *Conv2D) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, c.LayerName)
	hw := c.geom.OutH * c.geom.OutW
	c.dxB = reuse(c.dxB, b, c.InC, c.InH, c.InW)
	dx, sz := c.dxB.Data(), c.InC*c.InH*c.InW
	for s := 0; s < b; s++ {
		c.sampleGrads(s, sampleView(dOut, s, c.OutC, hw), dx[s*sz:(s+1)*sz])
	}
	return c.dxB
}

// BackwardBatchInput implements BatchLayer: the dX chain only, skipping
// the weight and bias gradients.
func (c *Conv2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, c.LayerName)
	hw := c.geom.OutH * c.geom.OutW
	c.dxB = reuse(c.dxB, b, c.InC, c.InH, c.InW)
	dx, sz := c.dxB.Data(), c.InC*c.InH*c.InW
	for s := 0; s < b; s++ {
		c.inputGrad(sampleView(dOut, s, c.OutC, hw), dx[s*sz:(s+1)*sz])
	}
	return c.dxB
}

// --- Dense ---

// ForwardBatch implements BatchLayer: one [B,In]×[Out,In]ᵀ GEMM into the
// layer's output workspace. Each output row runs the per-sample MatVec
// dot-product sequence, so rows are bit-identical to per-sample Forward.
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, d.LayerName)
	if x.Size() != b*d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs per sample, got %v", d.LayerName, d.In, x.Shape()))
	}
	d.xBatch = x.Reshape(b, d.In)
	d.outB = reuse(d.outB, b, d.Out)
	tensor.MatMulTBInto(d.outB, d.xBatch, d.Weight.W, false) // [B, Out]
	od, bd := d.outB.Data(), d.Bias.W.Data()
	for s := 0; s < b; s++ {
		row := od[s*d.Out : (s+1)*d.Out]
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return d.outB
}

// BackwardBatch implements BatchLayer. dW = dOutᵀ·X accumulates every
// weight cell's per-sample terms in ascending sample order with the
// per-sample zero-skip (the MatMulTA kernel), dX = dOut·W computes every
// sample's input-gradient row with the per-sample kernel sequence, and
// the bias gradient walks samples in order — all bit-identical to the
// serial per-sample accumulation loop.
func (d *Dense) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	if dOut.Size() != b*d.Out {
		panic(fmt.Sprintf("nn: %s backward expects %d grads per sample, got %v", d.LayerName, d.Out, dOut.Shape()))
	}
	d2 := dOut.Reshape(b, d.Out)
	tensor.MatMulTAInto(d.Weight.Grad, d2, d.xBatch, true)
	do, bg := d2.Data(), d.Bias.Grad.Data()
	for s := 0; s < b; s++ {
		for o := 0; o < d.Out; o++ {
			bg[o] += do[s*d.Out+o]
		}
	}
	return d.inputGradBatch(d2)
}

// inputGradBatch computes dX = dOut·W into the layer's [B, In] input
// gradient workspace. MatMulInto zeroes it before accumulating, as
// MatMul does a fresh matrix.
func (d *Dense) inputGradBatch(d2 *tensor.Tensor) *tensor.Tensor {
	d.dxB = reuse(d.dxB, d2.Dim(0), d.In)
	tensor.MatMulInto(d.dxB, d2, d.Weight.W, false)
	return d.dxB
}

// BackwardSample implements BatchLayer: the per-sample backward loops
// against sample b's cached input row.
func (d *Dense) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	d.dxS = reuse(d.dxS, d.In)
	d.dxS.Zero()
	d.backwardInto(d.dxS, dOut, d.xBatch.Data()[b*d.In:(b+1)*d.In])
	return d.dxS
}

// ReleaseBatchState implements BatchLayer.
func (d *Dense) ReleaseBatchState() { d.xBatch, d.outB, d.dxB, d.dxS = nil, nil, nil, nil }

// BackwardBatchInput implements BatchLayer: dX = dOut·W only.
func (d *Dense) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	return d.inputGradBatch(dOut.Reshape(b, d.Out))
}

// --- MaxPool2D ---

// ForwardBatch implements BatchLayer: the window scan runs per sample
// (pooling has no useful batched matrix form), caching each sample's
// winner indexes for the batched backward passes.
func (m *MaxPool2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != m.C || x.Dim(2) != m.H || x.Dim(3) != m.W {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", m.LayerName, m.C, m.H, m.W, x.Shape()))
	}
	b := x.Dim(0)
	m.batchB = b
	oh, ow := m.geom.OutH, m.geom.OutW
	outSz := m.C * oh * ow
	inSz := m.C * m.H * m.W
	m.outB = reuse(m.outB, b, m.C, oh, ow)
	if cap(m.argmaxB) < b*outSz {
		m.argmaxB = make([]int, b*outSz)
	}
	m.argmaxB = m.argmaxB[:b*outSz]
	xd, od := x.Data(), m.outB.Data()
	for s := 0; s < b; s++ {
		m.poolSample(xd[s*inSz:(s+1)*inSz], od[s*outSz:(s+1)*outSz], m.argmaxB[s*outSz:(s+1)*outSz])
	}
	return m.outB
}

// BackwardBatch implements BatchLayer. The input-gradient workspace is
// zeroed before the scatter: only window winners receive gradient.
func (m *MaxPool2D) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, m.LayerName)
	outSz := m.C * m.geom.OutH * m.geom.OutW
	inSz := m.C * m.H * m.W
	if dOut.Size() != b*outSz {
		panic(fmt.Sprintf("nn: %s batch backward size %d, want %d", m.LayerName, dOut.Size(), b*outSz))
	}
	m.dxB = reuse(m.dxB, b, m.C, m.H, m.W)
	m.dxB.Zero()
	dd, dxd := dOut.Data(), m.dxB.Data()
	for s := 0; s < b; s++ {
		scatterPool(dxd[s*inSz:(s+1)*inSz], dd[s*outSz:(s+1)*outSz], m.argmaxB[s*outSz:(s+1)*outSz])
	}
	return m.dxB
}

// ReleaseBatchState implements BatchLayer.
func (m *MaxPool2D) ReleaseBatchState() {
	m.argmaxB, m.batchB = nil, 0
	m.outB, m.dxB, m.dxS = nil, nil, nil
}

// BackwardBatchInput implements BatchLayer (pooling has no parameters).
func (m *MaxPool2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return m.BackwardBatch(dOut)
}

// BackwardSample implements BatchLayer.
func (m *MaxPool2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	outSz := m.C * m.geom.OutH * m.geom.OutW
	m.dxS = reuse(m.dxS, m.C, m.H, m.W)
	m.dxS.Zero()
	scatterPool(m.dxS.Data(), dOut.Data(), m.argmaxB[b*outSz:(b+1)*outSz])
	return m.dxS
}

// --- Activate ---

// ForwardBatch implements BatchLayer; the activation is elementwise, so
// the batched pass is the per-sample pass over a longer slice, written
// into the layer's output workspace.
func (a *Activate) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	a.inB = x
	a.outB = reuse(a.outB, x.Shape()...)
	a.activateInto(a.outB.Data(), x.Data())
	return a.outB
}

// BackwardBatch implements BatchLayer.
func (a *Activate) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	a.dxB = reuse(a.dxB, dOut.Shape()...)
	a.backwardInto(a.dxB, dOut, a.inB.Data(), a.outB.Data())
	return a.dxB
}

// ReleaseBatchState implements BatchLayer.
func (a *Activate) ReleaseBatchState() { a.inB, a.outB, a.dxB, a.dxS = nil, nil, nil, nil }

// BackwardBatchInput implements BatchLayer (activations have no
// parameters).
func (a *Activate) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return a.BackwardBatch(dOut)
}

// BackwardSample implements BatchLayer.
func (a *Activate) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	n := dOut.Size()
	a.dxS = reuse(a.dxS, dOut.Shape()...)
	a.backwardInto(a.dxS, dOut, a.inB.Data()[b*n:(b+1)*n], a.outB.Data()[b*n:(b+1)*n])
	return a.dxS
}

// --- ScaleShift ---

// ForwardBatch implements BatchLayer; the affine map is elementwise and
// stateless, so the per-sample pass applies unchanged.
func (s *ScaleShift) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return s.Forward(x) }

// BackwardBatch implements BatchLayer.
func (s *ScaleShift) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor { return s.Backward(dOut) }

// BackwardBatchInput implements BatchLayer.
func (s *ScaleShift) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return s.Backward(dOut)
}

// ReleaseBatchState implements BatchLayer (ScaleShift keeps no state).
func (s *ScaleShift) ReleaseBatchState() {}

// BackwardSample implements BatchLayer.
func (s *ScaleShift) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return s.Backward(dOut)
}

// --- Flatten ---

// ForwardBatch implements BatchLayer: [B, d1, d2, ...] becomes
// [B, d1*d2*...], a reshape of shared data.
func (f *Flatten) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, f.LayerName)
	f.inShapeB = append(f.inShapeB[:0], x.Shape()...)
	return x.Reshape(b, x.Size()/b)
}

// BackwardBatch implements BatchLayer.
func (f *Flatten) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB...)
}

// BackwardBatchInput implements BatchLayer.
func (f *Flatten) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return f.BackwardBatch(dOut)
}

// ReleaseBatchState implements BatchLayer.
func (f *Flatten) ReleaseBatchState() { f.inShapeB = nil }

// BackwardSample implements BatchLayer.
func (f *Flatten) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB[1:]...)
}
