// Package train implements the optimisers and minibatch loop used to fit
// the reproduction's models: plain SGD with momentum and Adam, a
// step-decay learning-rate schedule, and accuracy evaluation.
package train

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Optimizer updates network parameters from the accumulated gradients of
// one minibatch.
type Optimizer interface {
	// Step applies one update given the batch size the gradients were
	// accumulated over.
	Step(net *nn.Network, batchSize int)
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity [][]float64
}

// NewSGD returns an SGD optimiser.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step implements Optimizer.
func (s *SGD) Step(net *nn.Network, batchSize int) {
	params := net.Params()
	if s.velocity == nil {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, p.W.Size())
		}
	}
	inv := 1 / float64(batchSize)
	for i, p := range params {
		w, g, v := p.W.Data(), p.Grad.Data(), s.velocity[i]
		for j := range w {
			v[j] = s.Momentum*v[j] - s.LR*g[j]*inv
			w[j] += v[j]
		}
	}
}

// Adam is the Adam optimiser (Kingma & Ba) with standard bias
// correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float64
}

// NewAdam returns an Adam optimiser with the usual defaults for any
// field left zero (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(net *nn.Network, batchSize int) {
	params := net.Params()
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, p.W.Size())
			a.v[i] = make([]float64, p.W.Size())
		}
	}
	a.t++
	inv := 1 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		w, g, m, v := p.W.Data(), p.Grad.Data(), a.m[i], a.v[i]
		for j := range w {
			gj := g[j] * inv
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*gj
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*gj*gj
			mh := m[j] / bc1
			vh := v[j] / bc2
			w[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// LRDecay multiplies SGD's learning rate by this factor after each
	// epoch when nonzero (ignored for Adam).
	LRDecay float64
	// Seed drives minibatch shuffling.
	Seed int64
	// Verbose writes one line per epoch to Logf when set.
	Logf func(format string, args ...any)
	// Parallelism is the number of pool workers each minibatch's
	// gradient accumulation fans out across: Fit keeps a persistent
	// parallel.Pool for the whole run, with one clone of the network
	// pinned to each worker, and every worker forwards and
	// backpropagates its contiguous slice of the batch on its own
	// clone. Values <= 1 keep the exact serial path. The
	// parallel path is deterministic for a fixed Seed and Parallelism
	// (workers merge in index order) but is not bit-identical to serial,
	// because per-sample gradient additions associate differently.
	Parallelism int
}

// Result summarises a training run.
type Result struct {
	FinalLoss     float64
	TrainAccuracy float64
	Epochs        int
}

// gradChunk accumulates the softmax cross-entropy gradients of the
// given samples into net and returns the per-sample losses in order.
// One batched forward/backward pass covers the whole chunk; parameter
// gradients accumulate in ascending sample order, exactly as a loop of
// one-sample passes would add them, and losses come back individually
// so callers can reduce them in sample order — so the model and the
// reported loss do not depend on how a minibatch is chunked.
func gradChunk(net *nn.Network, ds *data.Dataset, idxs []int) []float64 {
	xs := make([]*tensor.Tensor, len(idxs))
	labels := make([]int, len(idxs))
	for i, idx := range idxs {
		xs[i] = ds.Samples[idx].X
		labels[i] = ds.Samples[idx].Label
	}
	losses, dLogits := nn.SoftmaxCrossEntropyBatch(net.ForwardBatch(tensor.Stack(xs)), labels)
	net.BackwardBatch(dLogits)
	return losses
}

// Fit trains net on ds with softmax cross-entropy. Each minibatch runs
// as one batched forward/backward pass (optionally split across
// Parallelism workers), with gradients applied once per minibatch.
func Fit(net *nn.Network, ds *data.Dataset, cfg Config) (Result, error) {
	if cfg.Epochs <= 0 {
		return Result{}, fmt.Errorf("train: epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return Result{}, fmt.Errorf("train: batch size must be positive, got %d", cfg.BatchSize)
	}
	if cfg.Optimizer == nil {
		return Result{}, fmt.Errorf("train: optimizer must be set")
	}
	if ds.Len() == 0 {
		return Result{}, fmt.Errorf("train: empty dataset")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}

	// Minibatch-parallel gradient accumulation runs on a persistent
	// worker pool with one network clone pinned to each worker: the
	// goroutines and the clones live for the whole run, and each worker
	// re-syncs its own clone inside the parallel region — concurrently,
	// and only for the workers a minibatch actually uses — instead of
	// the old serial all-clone re-sync on the dispatching goroutine
	// before every minibatch.
	workers := parallel.Effective(cfg.BatchSize, parallel.Workers(cfg.Parallelism))
	var pool *parallel.Pool
	var clones []*nn.Network
	var workerLoss []float64
	if workers > 1 {
		pool = parallel.NewPool(workers)
		defer pool.Close()
		clones = make([]*nn.Network, workers)
		pool.Each(func(w int) { clones[w] = net.Clone() })
		workerLoss = make([]float64, workers)
	}

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			net.ZeroGrad()
			batch := order[start:end]
			if workers > 1 {
				// A short final minibatch uses fewer chunks than the pool
				// has workers; only the used clones are synced and merged.
				eff := parallel.Effective(len(batch), workers)
				pool.For(len(batch), func(w, lo, hi int) {
					c := clones[w]
					c.SyncParamsFrom(net)
					c.ZeroGrad()
					workerLoss[w] = 0
					for _, l := range gradChunk(c, ds, batch[lo:hi]) {
						workerLoss[w] += l
					}
				})
				// Merge in worker (= batch) order: deterministic for a
				// fixed Seed and Parallelism.
				for _, c := range clones[:eff] {
					net.AddGradsFrom(c)
				}
				for _, l := range workerLoss[:eff] {
					epochLoss += l //detlint:allow floatreduce(sequential fold over per-worker losses in fixed worker order; regrouping through a kernel would change rounding and break run-to-run loss identity)
				}
			} else {
				for _, l := range gradChunk(net, ds, batch) {
					epochLoss += l //detlint:allow floatreduce(sequential fold in minibatch-schedule order; the epoch loss is defined by this exact accumulation sequence)
				}
			}
			cfg.Optimizer.Step(net, end-start)
		}
		lastLoss = epochLoss / float64(ds.Len())
		if sgd, ok := cfg.Optimizer.(*SGD); ok && cfg.LRDecay > 0 {
			sgd.LR *= cfg.LRDecay //detlint:allow floatreduce(per-epoch geometric LR decay, one multiply per epoch in schedule order; not a data reduction)
		}
		if cfg.Logf != nil {
			cfg.Logf("epoch %d/%d: loss %.4f", epoch+1, cfg.Epochs, lastLoss)
		}
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			return Result{}, fmt.Errorf("train: loss diverged at epoch %d", epoch+1)
		}
	}
	// The closing Accuracy pass also releases the batch caches, so the
	// trained model returns without pinning batch-sized heap.
	return Result{
		FinalLoss:     lastLoss,
		TrainAccuracy: Accuracy(net, ds),
		Epochs:        cfg.Epochs,
	}, nil
}

// accuracyBatch is the evaluation batch size of Accuracy. Batched
// logits are bit-identical to per-sample ones, so the chunking only
// affects speed.
const accuracyBatch = 64

// Accuracy returns the fraction of samples net classifies correctly,
// evaluating in batched forward passes.
func Accuracy(net *nn.Network, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	xs := make([]*tensor.Tensor, 0, accuracyBatch)
	for start := 0; start < ds.Len(); start += accuracyBatch {
		end := min(start+accuracyBatch, ds.Len())
		xs = xs[:0]
		for i := start; i < end; i++ {
			xs = append(xs, ds.Samples[i].X)
		}
		for j, class := range net.PredictBatch(tensor.Stack(xs)) {
			if class == ds.Samples[start+j].Label {
				correct++
			}
		}
	}
	net.ReleaseBatchState()
	return float64(correct) / float64(ds.Len())
}
