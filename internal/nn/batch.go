package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// The engine's passes all run on [B, ...] batches (sample blocks
// contiguous, row-major); a single sample is a batch of one, which is
// all Network.Forward and Network.Backward are. ForwardBatch and
// BackwardBatch run the whole batch, BackwardSample backpropagates one
// sample of the last ForwardBatch on its own, and BackwardBatchInput is
// BackwardBatch without the parameter gradients.
//
// A sample's results do not depend on the batch it rides in:
//
//   - Batched products fold the batch into rows or columns of the GEMM
//     kernels, so every output cell is produced by exactly the
//     instruction sequence of a one-sample batch (same accumulation
//     order, same zero-skips, multiplication operand order immaterial).
//   - Parameter gradients accumulate across the batch in ascending
//     sample order, the order of a loop of one-sample passes.
//
// This is what lets the coverage engine and the suite generators batch
// candidate evaluation while keeping suites bit-identical at any batch
// size, and composes with the worker pool: batch inside a worker,
// workers across batches.
//
// Buffer ownership. The passes write into grow-only workspaces owned by
// the layer instead of allocating per call, so the 30 steps of an
// Algorithm 2 synthesis run allocate almost nothing after the first:
//
//   - A tensor returned by a layer's ForwardBatch, BackwardBatch,
//     BackwardBatchInput or BackwardSample (and by Network.StackBatch,
//     Network.Backward/BackwardBatch/BackwardBatchInput/BackwardSample)
//     is owned by that layer. It stays valid until the same network's
//     next pass of the same kind, which overwrites it in place. Callers
//     that keep one longer must Clone it.
//   - Network.ForwardBatch (and Network.Forward, a batch of one) is the
//     exception: its logits are a fresh tensor on every call and never
//     alias an earlier call's, because servers and the coalescer hand
//     them to clients after the clone goes back to its pool.
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

// batchDim returns the leading (batch) dimension of x.
func batchDim(x *tensor.Tensor, name string) int {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s batch input must have a leading batch dimension, got %v", name, x.Shape()))
	}
	return x.Dim(0)
}

// asBatch views one sample as a [1, ...] batch of it.
func asBatch[E tensor.Num](x *tensor.Dense[E]) *tensor.Dense[E] {
	return x.Reshape(append([]int{1}, x.Shape()...)...)
}

// ForwardBatch runs the full stack over a [B, ...] batch and returns the
// [B, classes] logits. Every logits row is bit-identical to a batch of
// that sample alone. The logits are a fresh copy out of the last
// layer's workspace, so they never alias another call's.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.LayerStack {
		x = l.ForwardBatch(x)
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
// the batch in ascending sample order — the exact sequence of a loop of
// one-sample passes — and returns the [B, ...] input gradient.
func (n *Network) BackwardBatch(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].BackwardBatch(d)
	}
	return d
}

// BackwardSample propagates one sample's logits gradient through the
// stack against the caches of the last ForwardBatch, accumulating that
// sample's parameter gradients only. Combined with ZeroGrad per sample
// it yields the same per-sample ∇θ as a Forward+Backward of that sample
// alone.
func (n *Network) BackwardSample(b int, dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].BackwardSample(b, d)
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
		d = n.LayerStack[i].BackwardBatchInput(d)
	}
	return d
}

// ReleaseBatchState drops the per-batch caches and workspaces the
// passes keep on each layer (im2col matrices, pass outputs and input
// gradients, activation inputs, pooling winner indexes) and the
// StackBatch input. Call it after a workload when the network lives on
// — serialized, pooled, kept as a reference — so the last batch's
// buffers do not pin heap; the next pass regrows them. A pending
// Backward/BackwardBatch/BackwardSample must run before releasing.
func (n *Network) ReleaseBatchState() {
	n.stack = nil
	for _, l := range n.LayerStack {
		l.ReleaseBatchState()
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
