package nn

import (
	"math"

	"repro/internal/tensor"
)

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
}

// NewScaleShift constructs the normalisation layer.
func NewScaleShift(name string, a, b float64) *ScaleShift {
	return &ScaleShift{LayerName: name, A: a, B: b}
}

// Forward implements Layer.
func (s *ScaleShift) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	out.Scale(s.A)
	out.Apply(func(v float64) float64 { return v + s.B })
	return out
}

// Backward implements Layer.
func (s *ScaleShift) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dx := dOut.Clone()
	dx.Scale(s.A)
	return dx
}

// Params implements Layer.
func (s *ScaleShift) Params() []*Param { return nil }

// Name implements Layer.
func (s *ScaleShift) Name() string { return s.LayerName }

// Saturating reports whether the activation has saturation regions where
// gradients approach but never exactly reach zero; such networks need an
// ε > 0 activation threshold (paper §IV-A).
func (a Activation) Saturating() bool { return a == Tanh || a == Sigmoid }

// Activate is an elementwise activation layer.
type Activate struct {
	LayerName string
	Fn        Activation

	in, out *tensor.Tensor // cached for the backward pass

	inB, outB *tensor.Tensor // cached batch state of the last ForwardBatch

	// Input-gradient workspaces of the batched and per-sample-of-batch
	// backward passes (batch.go states the ownership contract).
	dxB, dxS *tensor.Tensor
}

// NewActivate constructs an activation layer.
func NewActivate(name string, fn Activation) *Activate {
	return &Activate{LayerName: name, Fn: fn}
}

// Forward implements Layer.
func (a *Activate) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.in = x
	a.out = tensor.New(x.Shape()...)
	a.activateInto(a.out.Data(), x.Data())
	return a.out
}

// activateInto writes Fn applied elementwise to x into out; the shared
// kernel of the per-sample and batched forward passes (the ops are
// per-element, so batching cannot change any value).
func (a *Activate) activateInto(out, x []float64) {
	out = out[:len(x)]
	switch a.Fn {
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
			out[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range x {
			out[i] = 1 / (1 + math.Exp(-v))
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

// Backward implements Layer.
func (a *Activate) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dOut.Shape()...)
	a.backwardInto(dx, dOut, a.in.Data(), a.out.Data())
	return dx
}

// backwardInto is the elementwise backward kernel against explicit
// cached forward slices, shared by the per-sample, batched and
// per-sample-of-batch paths: it copies dOut into dx (same size) and
// scales it in place.
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
