package coverage

import (
	"repro/internal/bitset"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// PinnedExtractor runs activation extraction on a persistent
// parallel.Pool with one network clone pinned to each worker. Where
// ParamSetsParallel clones the network on every call, a PinnedExtractor
// clones once at construction and reuses the clones across all the
// extraction calls of a generator run — the per-call cost drops to the
// fan-out itself. Pool worker identities are stable, so worker w always
// evaluates on clone w with no synchronisation beyond the pool's own.
//
// Extraction results depend only on parameters and inputs, and the pool
// partitions [0,n) exactly as parallel.For does at the pool's worker
// count, so every extraction is bit-identical to
// ParamSetsParallel/ParamSetsOf with workers = pool.Workers().
//
// A PinnedExtractor must only be used from one dispatching goroutine at
// a time (the pool's own discipline).
type PinnedExtractor struct {
	pool   *parallel.Pool
	clones []*nn.Network
	batch  int
}

// NewPinnedExtractor pins one clone of net to every worker of pool.
// batch is the per-worker evaluation batch size (values < 1 mean 1,
// like the batch argument of ParamSetsParallel).
func NewPinnedExtractor(net *nn.Network, pool *parallel.Pool, batch int) *PinnedExtractor {
	if batch < 1 {
		batch = 1
	}
	e := &PinnedExtractor{pool: pool, clones: make([]*nn.Network, pool.Workers()), batch: batch}
	// Each worker constructs its own clone on its own goroutine; Clone
	// only reads net, so the concurrent construction is safe.
	pool.Each(func(w int) { e.clones[w] = net.Clone() })
	return e
}

// Sync refreshes every pinned clone's parameters from src, each worker
// touching only its own clone.
func (e *PinnedExtractor) Sync(src *nn.Network) {
	e.pool.Each(func(w int) { e.clones[w].SyncParamsFrom(src) })
}

// ParamSets computes the activation set of every sample in ds on the
// pinned clones; bit-identical to ParamSetsParallel at the pool's
// worker count.
func (e *PinnedExtractor) ParamSets(ds *data.Dataset, cfg Config) []*bitset.Set {
	return e.paramSets(func(i int) *tensor.Tensor { return ds.Samples[i].X }, ds.Len(), cfg)
}

// ParamSetsOf computes the activation set of each input tensor on the
// pinned clones; bit-identical to ParamSetsOf at the pool's worker
// count.
func (e *PinnedExtractor) ParamSetsOf(xs []*tensor.Tensor, cfg Config) []*bitset.Set {
	return e.paramSets(func(i int) *tensor.Tensor { return xs[i] }, len(xs), cfg)
}

func (e *PinnedExtractor) paramSets(input func(int) *tensor.Tensor, n int, cfg Config) []*bitset.Set {
	sets := make([]*bitset.Set, n)
	e.chunks(input, n, func(clone *nn.Network, xs []*tensor.Tensor, start int) {
		paramSetsBatch(clone, xs, cfg, sets[start:start+len(xs)])
	})
	return sets
}

// NeuronSets computes the neuron-activation set of every sample in ds
// on the pinned clones; bit-identical to the spawn-per-call NeuronSets
// at the pool's worker count (each sample's set depends only on
// parameters and input, so the partitioning cannot matter).
func (e *PinnedExtractor) NeuronSets(ds *data.Dataset, cfg NeuronConfig) []*bitset.Set {
	sets := make([]*bitset.Set, ds.Len())
	e.chunks(func(i int) *tensor.Tensor { return ds.Samples[i].X }, ds.Len(), func(clone *nn.Network, xs []*tensor.Tensor, start int) {
		neuronSetsBatch(clone, xs, cfg, sets[start:start+len(xs)])
	})
	return sets
}

// chunks fans [0,n) out over the pool's pinned clones and walks each
// worker's range in contiguous chunks of up to the extractor's batch —
// the pinned counterpart of workerBatches, shared by the parameter- and
// neuron-set extractors so their chunking cannot drift apart.
func (e *PinnedExtractor) chunks(input func(int) *tensor.Tensor, n int,
	fn func(clone *nn.Network, xs []*tensor.Tensor, start int)) {
	e.pool.For(n, func(w, lo, hi int) {
		clone := e.clones[w]
		for start := lo; start < hi; start += e.batch {
			end := min(start+e.batch, hi)
			xs := make([]*tensor.Tensor, end-start)
			for j := range xs {
				xs[j] = input(start + j)
			}
			fn(clone, xs, start)
		}
	})
}
