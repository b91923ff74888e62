package coverage

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NeuronConfig controls the neuron-coverage criterion of the
// hardware-testing baseline (Ma et al. [11], DeepXplore [10]): a neuron
// is covered by an input when its activation output exceeds a threshold.
type NeuronConfig struct {
	// Threshold on the activation output. For ReLU-family networks a
	// neuron fires when out > Threshold (0 is the standard choice); for
	// saturating activations when |out| > Threshold.
	Threshold float64
}

// NumNeurons returns the total number of neurons (elements of activation
// layer outputs) the network has for the given input shape.
func NumNeurons(net *nn.Network, inShape []int) int {
	return NeuronActivation(net, tensor.New(inShape...), NeuronConfig{}).Len()
}

// NeuronActivation returns the set of neurons x fires, indexed across
// all activation layers in network order. It is the batched extractor on
// a batch of one.
func NeuronActivation(net *nn.Network, x *tensor.Tensor, cfg NeuronConfig) *bitset.Set {
	var out [1]*bitset.Set
	neuronSetsBatch(net, []*tensor.Tensor{x}, cfg, out[:])
	return out[0]
}

// fillFired sets one bit per activation value starting at idx and
// returns the index after the last value; the single definition of the
// firing criterion.
func fillFired(set *bitset.Set, idx int, vals []float64, saturating bool, cfg NeuronConfig) int {
	for _, v := range vals {
		fired := v > cfg.Threshold
		if saturating {
			fired = math.Abs(v) > cfg.Threshold
		}
		if fired {
			set.Set(idx)
		}
		idx++
	}
	return idx
}

// NeuronSets computes the neuron-activation set of every sample in ds,
// fanning out across workers with per-worker network clones and batching
// within each worker (neuron coverage needs only forward activations, so
// the whole extraction rides the batched forward pass); the
// precomputation step of the neuron-greedy baseline. Results are
// identical at any worker count and batch size (batch <= 1 means one
// sample per pass).
func NeuronSets(net *nn.Network, ds *data.Dataset, cfg NeuronConfig, workers, batch int) []*bitset.Set {
	sets := make([]*bitset.Set, ds.Len())
	input := func(i int) *tensor.Tensor { return ds.Samples[i].X }
	workerBatches(net, input, ds.Len(), workers, batch, func(clone *nn.Network, xs []*tensor.Tensor, start int) {
		neuronSetsBatch(clone, xs, cfg, sets[start:start+len(xs)])
	})
	return sets
}

// neuronSetsBatch fills out with each input's fired-neuron set from one
// batched forward pass, indexed across all activation layers in network
// order. Activations do not depend on the batch, so neither do the
// sets.
func neuronSetsBatch(net *nn.Network, xs []*tensor.Tensor, cfg NeuronConfig, out []*bitset.Set) {
	type actOut struct {
		out        *tensor.Tensor
		saturating bool
	}
	var outs []actOut
	cur := tensor.Stack(xs)
	for _, l := range net.LayerStack {
		cur = l.ForwardBatch(cur)
		if a, ok := l.(*nn.Activate); ok {
			outs = append(outs, actOut{out: cur, saturating: a.Fn.Saturating()})
		}
	}
	total := 0
	for _, o := range outs {
		total += o.out.Size() / len(xs)
	}
	for b := range xs {
		set := bitset.New(total)
		idx := 0
		for _, o := range outs {
			idx = fillFired(set, idx, o.out.Sample(b).Data(), o.saturating, cfg)
		}
		out[b] = set
	}
}

// NeuronCoverage returns the fraction of neurons fired by at least one
// of the test inputs.
func NeuronCoverage(net *nn.Network, tests []*tensor.Tensor, inShape []int, cfg NeuronConfig) float64 {
	n := NumNeurons(net, inShape)
	acc := NewAccumulator(n)
	for _, x := range tests {
		acc.Add(NeuronActivation(net, x, cfg))
	}
	return acc.Coverage()
}
