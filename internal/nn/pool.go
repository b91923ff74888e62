package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a max pooling layer over a [C,H,W] input with a square
// window. The backward pass routes each output gradient to the input
// position that won the max, as cached during Forward.
type MaxPool2D struct {
	LayerName string
	C, H, W   int
	K, Stride int
	geom      tensor.ConvGeom
	argmax    []int // flat input index chosen for each output cell

	argmaxB []int // per-sample winner indexes of the last ForwardBatch
	batchB  int   // batch size of the last ForwardBatch

	// Batched-pass workspaces (batch.go states the ownership contract).
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

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != m.C || x.Dim(1) != m.H || x.Dim(2) != m.W {
		panic(fmt.Sprintf("nn: %s expects input [%d %d %d], got %v", m.LayerName, m.C, m.H, m.W, x.Shape()))
	}
	oh, ow := m.geom.OutH, m.geom.OutW
	out := tensor.New(m.C, oh, ow)
	if cap(m.argmax) < m.C*oh*ow {
		m.argmax = make([]int, m.C*oh*ow)
	}
	m.argmax = m.argmax[:m.C*oh*ow]
	m.poolSample(x.Data(), out.Data(), m.argmax)
	return out
}

// poolSample runs the max-pooling window scan over one sample's data,
// writing outputs and winner indexes (relative to the sample); the shared
// kernel of the per-sample and batched forward passes.
func (m *MaxPool2D) poolSample(xd, od []float64, argmax []int) {
	oh, ow := m.geom.OutH, m.geom.OutW
	oi2 := 0
	for c := 0; c < m.C; c++ {
		chanBase := c * m.H * m.W
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				best, bi := -1.0, -1
				first := true
				for ki := 0; ki < m.K; ki++ {
					ii := oi*m.Stride + ki
					rowBase := chanBase + ii*m.W
					for kj := 0; kj < m.K; kj++ {
						jj := oj*m.Stride + kj
						v := xd[rowBase+jj]
						if first || v > best {
							best, bi = v, rowBase+jj
							first = false
						}
					}
				}
				od[oi2] = best
				argmax[oi2] = bi
				oi2++
			}
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.C, m.H, m.W)
	dd := dOut.Data()
	if len(dd) != len(m.argmax) {
		panic(fmt.Sprintf("nn: %s backward size %d, want %d", m.LayerName, len(dd), len(m.argmax)))
	}
	scatterPool(dx.Data(), dd, m.argmax)
	return dx
}

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
