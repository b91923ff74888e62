package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] batches of [C,H,W]
// images, lowered to a matrix multiply via im2col. Weights have shape
// [OutC, InC*K*K]; biases [OutC].
type Conv2D struct {
	LayerName       string
	InC, InH, InW   int
	OutC, K, Stride int
	Pad             int
	Weight, Bias    *Param
	geom            tensor.ConvGeom

	// Pass state and workspaces (batch.go states the ownership
	// contract).
	colBatch *tensor.Tensor        // cached Im2ColBatch of the last batch input
	batchB   int                   // batch size of the last ForwardBatch
	outB     *tensor.Tensor        // [B, OutC, OH, OW] ForwardBatch output
	views    []tensor.Mat[float64] // per-sample GEMM views of the batched forward
	dxB      *tensor.Tensor        // [B, InC, InH, InW] batched input gradient
	dxS      *tensor.Tensor        // [InC, InH, InW] BackwardSample input gradient
	dcol     *tensor.Tensor        // [InC*K*K, OH*OW] scratch of every backward's Wᵀ·dOut
}

// NewConv2D constructs a convolution for a fixed input geometry.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	g := tensor.Geom(inC, inH, inW, k, k, stride, pad)
	return &Conv2D{
		LayerName: name,
		InC:       inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: newParam(name+".W", outC, inC*k*k),
		Bias:   newParam(name+".b", outC),
		geom:   g,
	}
}

// Init fills the weights with He-normal values (suitable for ReLU) and
// zero biases.
func (c *Conv2D) Init(rng *rand.Rand) {
	c.Weight.W.HeNormal(rng, c.InC*c.K*c.K)
	c.Bias.W.Zero()
}

// InitGlorot fills the weights with Glorot-uniform values (suitable for
// Tanh/Sigmoid) and zero biases.
func (c *Conv2D) InitGlorot(rng *rand.Rand) {
	fanIn := c.InC * c.K * c.K
	fanOut := c.OutC * c.K * c.K
	c.Weight.W.GlorotUniform(rng, fanIn, fanOut)
	c.Bias.W.Zero()
}

// OutShape returns the [OutC, OutH, OutW] output shape.
func (c *Conv2D) OutShape() []int { return []int{c.OutC, c.geom.OutH, c.geom.OutW} }

// Geom returns the convolution window geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// ForwardBatch implements Layer. The whole batch is lowered with
// Im2ColBatch into one [C*K*K, B*OutH*OutW] matrix and convolved by the
// fused strided kernel: each sample's [OutC, hw] block is written
// straight into its slab of the [B, OutC, OH, OW] output with the bias
// added in the GEMM epilogue — one memory pass, no separate bias loop,
// no permute. Every output element is computed by the same kernel
// sequence at any batch size (kernels.go states the argument), so a
// sample's output does not depend on its batch. The column matrix, the
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

// ReleaseBatchState implements Layer.
func (c *Conv2D) ReleaseBatchState() {
	c.colBatch, c.batchB = nil, 0
	c.outB, c.dxB, c.dxS, c.dcol, c.views = nil, nil, nil, nil, nil
}

// BackwardSample implements Layer. Sample b's im2col block is read in
// place through a strided view of the cached Im2ColBatch matrix and the
// gradient products run on it exactly as BackwardBatch runs them for
// that sample — with no gather copy.
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

// BackwardBatch implements Layer. Convolution weight gradients
// accumulate sample by sample in ascending order, so a batch adds
// exactly the terms of its one-sample passes in the same order (one long
// reduction would associate the partial sums differently); each
// sample's products are full-size GEMMs already. Each sample's input gradient lands
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

// BackwardBatchInput implements Layer: the dX chain only, skipping the
// weight and bias gradients.
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

// Dense is a fully connected layer y = W·x + b over [B, In] batches
// (any per-sample shape of In elements is accepted).
type Dense struct {
	LayerName    string
	In, Out      int
	Weight, Bias *Param

	xBatch *tensor.Tensor // cached [B,In] input of the last ForwardBatch

	// Pass workspaces (batch.go states the ownership contract).
	outB *tensor.Tensor // [B, Out] ForwardBatch output
	dxB  *tensor.Tensor // [B, In] batched input gradient
	dxS  *tensor.Tensor // [In] BackwardSample input gradient
}

// NewDense constructs a fully connected layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		LayerName: name, In: in, Out: out,
		Weight: newParam(name+".W", out, in),
		Bias:   newParam(name+".b", out),
	}
}

// Init fills the weights with He-normal values and zero biases.
func (d *Dense) Init(rng *rand.Rand) {
	d.Weight.W.HeNormal(rng, d.In)
	d.Bias.W.Zero()
}

// InitGlorot fills the weights with Glorot-uniform values and zero biases.
func (d *Dense) InitGlorot(rng *rand.Rand) {
	d.Weight.W.GlorotUniform(rng, d.In, d.Out)
	d.Bias.W.Zero()
}

// backwardInto is BackwardSample's body against sample b's cached input
// row xd: it accumulates the parameter gradients and adds the input
// gradient into dx, which the caller zeroes.
func (d *Dense) backwardInto(dx, dOut *tensor.Tensor, xd []float64) {
	do := dOut.Data()
	wg := d.Weight.Grad.Data()
	for o := 0; o < d.Out; o++ {
		g := do[o]
		if g != 0 {
			row := wg[o*d.In : o*d.In+d.In]
			for i, xv := range xd {
				row[i] += g * xv
			}
		}
		d.Bias.Grad.Data()[o] += g
	}
	dxd := dx.Data()
	wd := d.Weight.W.Data()
	for o := 0; o < d.Out; o++ {
		g := do[o]
		if g == 0 {
			continue
		}
		row := wd[o*d.In : o*d.In+d.In]
		for i, wv := range row {
			dxd[i] += g * wv
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// ForwardBatch implements Layer: one [B,In]×[Out,In]ᵀ GEMM into the
// layer's output workspace, then the bias epilogue. Each output row is
// its own ascending-k dot product, so a row does not depend on the
// batch it rides in.
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, d.LayerName)
	if x.Size() != b*d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs per sample, got %v", d.LayerName, d.In, x.Shape()))
	}
	d.xBatch = x.Reshape(b, d.In)
	d.outB = reuse(d.outB, b, d.Out)
	tensor.MatMulTBInto(d.outB, d.xBatch, d.Weight.W, false) // [B, Out]
	addBias(d.outB.Data(), d.Bias.W.Data())
	return d.outB
}

// BackwardBatch implements Layer. dW = dOutᵀ·X accumulates every weight
// cell's per-sample terms in ascending sample order with a zero-skip on
// each term (the MatMulTA kernel), dX = dOut·W computes each sample's
// input-gradient row on its own, and the bias gradient walks samples in
// order — so a batch accumulates exactly what its one-sample passes
// would, in the same order.
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

// BackwardSample implements Layer: one sample's backward loops against
// sample b's cached input row.
func (d *Dense) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	d.dxS = reuse(d.dxS, d.In)
	d.dxS.Zero()
	d.backwardInto(d.dxS, dOut, d.xBatch.Data()[b*d.In:(b+1)*d.In])
	return d.dxS
}

// ReleaseBatchState implements Layer.
func (d *Dense) ReleaseBatchState() { d.xBatch, d.outB, d.dxB, d.dxS = nil, nil, nil, nil }

// BackwardBatchInput implements Layer: dX = dOut·W only.
func (d *Dense) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	return d.inputGradBatch(dOut.Reshape(b, d.Out))
}

// Flatten reshapes every sample of a batch to rank 1, bridging conv
// stacks and dense heads.
type Flatten struct {
	LayerName string
	inShapeB  []int // input shape of the last ForwardBatch (incl. batch dim)
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// ForwardBatch implements Layer: [B, d1, d2, ...] becomes
// [B, d1*d2*...], a reshape of shared data.
func (f *Flatten) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, f.LayerName)
	f.inShapeB = append(f.inShapeB[:0], x.Shape()...)
	return x.Reshape(b, x.Size()/b)
}

// BackwardBatch implements Layer.
func (f *Flatten) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB...)
}

// BackwardBatchInput implements Layer.
func (f *Flatten) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return f.BackwardBatch(dOut)
}

// ReleaseBatchState implements Layer.
func (f *Flatten) ReleaseBatchState() { f.inShapeB = nil }

// BackwardSample implements Layer.
func (f *Flatten) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB[1:]...)
}
