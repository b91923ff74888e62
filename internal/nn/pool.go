package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a max pooling layer over [B, C, H, W] batches with a
// square window. The backward passes route each output gradient to the
// input position that won the max, as cached during ForwardBatch.
type MaxPool2D struct {
	LayerName string
	C, H, W   int
	K, Stride int
	geom      tensor.ConvGeom

	argmaxB []int // per-sample winner indexes of the last ForwardBatch

	// Pass workspaces (batch.go states the ownership contract).
	outB     *tensor.Tensor // [B, C, OH, OW] ForwardBatch output
	dxB, dxS *tensor.Tensor // batched and BackwardSample input gradients
}

// NewMaxPool2D constructs a max pooling layer for a fixed input geometry.
func NewMaxPool2D(name string, c, h, w, k, stride int) *MaxPool2D {
	g := tensor.Geom(c, h, w, k, k, stride, 0)
	return &MaxPool2D{LayerName: name, C: c, H: h, W: w, K: k, Stride: stride, geom: g}
}

// OutShape returns the [C, OutH, OutW] output shape.
func (m *MaxPool2D) OutShape() []int { return []int{m.C, m.geom.OutH, m.geom.OutW} }

// Geom returns the pooling window geometry.
func (m *MaxPool2D) Geom() tensor.ConvGeom { return m.geom }

// scatterPool routes each output gradient back to the input cell that won
// its window.
func scatterPool(dxd, dd []float64, argmax []int) {
	for i, g := range dd {
		dxd[argmax[i]] += g
	}
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }

// ForwardBatch implements Layer: the window scan runs per sample
// (pooling has no useful batched matrix form), caching each sample's
// winner indexes for the backward passes.
func (m *MaxPool2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != m.C || x.Dim(2) != m.H || x.Dim(3) != m.W {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", m.LayerName, m.C, m.H, m.W, x.Shape()))
	}
	b := x.Dim(0)
	outSz := m.C * m.geom.OutH * m.geom.OutW
	m.outB = reuse(m.outB, b, m.C, m.geom.OutH, m.geom.OutW)
	if cap(m.argmaxB) < b*outSz {
		m.argmaxB = make([]int, b*outSz)
	}
	m.argmaxB = m.argmaxB[:b*outSz]
	poolForward(x.Data(), m.outB.Data(), m.argmaxB, b, m.geom)
	return m.outB
}

// BackwardBatch implements Layer. The input-gradient workspace is
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

// ReleaseBatchState implements Layer.
func (m *MaxPool2D) ReleaseBatchState() { m.argmaxB, m.outB, m.dxB, m.dxS = nil, nil, nil, nil }

// BackwardBatchInput implements Layer (pooling has no parameters).
func (m *MaxPool2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return m.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (m *MaxPool2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	outSz := m.C * m.geom.OutH * m.geom.OutW
	m.dxS = reuse(m.dxS, m.C, m.H, m.W)
	m.dxS.Zero()
	scatterPool(m.dxS.Data(), dOut.Data(), m.argmaxB[b*outSz:(b+1)*outSz])
	return m.dxS
}
