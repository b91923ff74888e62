package nn

import "repro/internal/tensor"

// Activation identifies a supported nonlinearity.
type Activation int

// Supported activations. ReLU is the CIFAR model's choice, Tanh the
// MNIST model's (paper Table I); Sigmoid and LeakyReLU round out the
// engine for the ε-threshold coverage experiments on saturating
// functions.
const (
	ReLU Activation = iota
	Tanh
	Sigmoid
	LeakyReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case LeakyReLU:
		return "leakyrelu"
	default:
		return "unknown"
	}
}

// leakySlope is the negative-region slope of LeakyReLU.
const leakySlope = 0.01

// ScaleShift is a fixed (non-learnable) elementwise affine input
// normalisation y = A·x + B. Saturating-activation networks use it to
// centre [0,1] pixel inputs to [-1,1], the standard preprocessing for
// Tanh stacks.
type ScaleShift struct {
	LayerName string
	A, B      float64

	// Pass workspaces (batch.go states the ownership contract).
	outB, dxB, dxS *tensor.Tensor
}

// NewScaleShift constructs the normalisation layer.
func NewScaleShift(name string, a, b float64) *ScaleShift {
	return &ScaleShift{LayerName: name, A: a, B: b}
}

// Params implements Layer.
func (s *ScaleShift) Params() []*Param { return nil }

// Name implements Layer.
func (s *ScaleShift) Name() string { return s.LayerName }

// ForwardBatch implements Layer: the affine map, elementwise into the
// layer's output workspace.
func (s *ScaleShift) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	s.outB = reuse(s.outB, x.Shape()...)
	scaleShift(s.outB.Data(), x.Data(), s.A, s.B)
	return s.outB
}

// scaleGrad writes dOut·A into dx, a workspace regrown to dOut's shape,
// and returns it; the body of every ScaleShift backward pass.
func (s *ScaleShift) scaleGrad(dx, dOut *tensor.Tensor) *tensor.Tensor {
	dx = reuse(dx, dOut.Shape()...)
	dxd := dx.Data()
	for i, g := range dOut.Data() {
		dxd[i] = g * s.A
	}
	return dx
}

// BackwardBatch implements Layer.
func (s *ScaleShift) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	s.dxB = s.scaleGrad(s.dxB, dOut)
	return s.dxB
}

// BackwardBatchInput implements Layer (ScaleShift has no parameters).
func (s *ScaleShift) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return s.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (s *ScaleShift) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	s.dxS = s.scaleGrad(s.dxS, dOut)
	return s.dxS
}

// ReleaseBatchState implements Layer.
func (s *ScaleShift) ReleaseBatchState() { s.outB, s.dxB, s.dxS = nil, nil, nil }

// Saturating reports whether the activation has saturation regions where
// gradients approach but never exactly reach zero; such networks need an
// ε > 0 activation threshold (paper §IV-A).
func (a Activation) Saturating() bool { return a == Tanh || a == Sigmoid }

// Activate is an elementwise activation layer.
type Activate struct {
	LayerName string
	Fn        Activation

	inB, outB *tensor.Tensor // cached input and output of the last ForwardBatch

	// Input-gradient workspaces of the batched and one-sample backward
	// passes (batch.go states the ownership contract).
	dxB, dxS *tensor.Tensor
}

// NewActivate constructs an activation layer.
func NewActivate(name string, fn Activation) *Activate {
	return &Activate{LayerName: name, Fn: fn}
}

// backwardInto is the elementwise backward kernel against explicit
// cached forward slices, shared by every backward pass: it copies dOut
// into dx (same size) and scales it in place.
func (a *Activate) backwardInto(dx, dOut *tensor.Tensor, in, out []float64) {
	dd := dx.Data()
	copy(dd, dOut.Data())
	switch a.Fn {
	case ReLU:
		for i := range dd {
			if in[i] <= 0 {
				dd[i] = 0
			}
		}
	case Tanh:
		for i := range dd {
			dd[i] *= 1 - out[i]*out[i]
		}
	case Sigmoid:
		for i := range dd {
			dd[i] *= out[i] * (1 - out[i])
		}
	case LeakyReLU:
		for i := range dd {
			if in[i] <= 0 {
				dd[i] *= leakySlope
			}
		}
	}
}

// Params implements Layer.
func (a *Activate) Params() []*Param { return nil }

// Name implements Layer.
func (a *Activate) Name() string { return a.LayerName }

// ForwardBatch implements Layer: the activation is elementwise, so a
// batch is one longer slice, written into the layer's output workspace.
func (a *Activate) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	a.inB = x
	a.outB = reuse(a.outB, x.Shape()...)
	activate(a.Fn, a.outB.Data(), x.Data())
	return a.outB
}

// BackwardBatch implements Layer.
func (a *Activate) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	a.dxB = reuse(a.dxB, dOut.Shape()...)
	a.backwardInto(a.dxB, dOut, a.inB.Data(), a.outB.Data())
	return a.dxB
}

// ReleaseBatchState implements Layer.
func (a *Activate) ReleaseBatchState() { a.inB, a.outB, a.dxB, a.dxS = nil, nil, nil, nil }

// BackwardBatchInput implements Layer (activations have no parameters).
func (a *Activate) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return a.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (a *Activate) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	n := dOut.Size()
	a.dxS = reuse(a.dxS, dOut.Shape()...)
	a.backwardInto(a.dxS, dOut, a.inB.Data()[b*n:(b+1)*n], a.outB.Data()[b*n:(b+1)*n])
	return a.dxS
}
