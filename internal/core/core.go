// Package core implements the paper's contribution: functional test
// generation for black-box DNN IP validation.
//
// Three generators are provided, mirroring §IV:
//
//   - SelectFromTraining (Algorithm 1) greedily picks training samples
//     that activate the most currently-unactivated parameters.
//   - GradientGenerate (Algorithm 2) synthesises inputs by gradient
//     descent so they are classified correctly by the *residual*
//     network formed by the still-unactivated parameters, one synthetic
//     sample per class per round.
//   - Combined (§IV-D) runs Algorithm 1 until its marginal coverage per
//     test falls below what Algorithm 2 achieves, then switches.
//
// The neuron-coverage greedy baseline of the hardware-testing literature
// (Ma et al. [11]) and a random-selection baseline complete the set the
// evaluation compares (Tables II/III).
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Source records where a test case came from.
type Source int

// Test case provenance.
const (
	FromTraining Source = iota
	FromSynthesis
)

// String implements fmt.Stringer.
func (s Source) String() string {
	if s == FromTraining {
		return "training"
	}
	return "synthetic"
}

// InitMode selects the starting point of Algorithm 2's input synthesis.
type InitMode int

// Synthesis initialisation modes. The paper initialises with zeros
// (Algorithm 2 line 3); Gaussian is the ablation alternative.
const (
	ZeroInit InitMode = iota
	GaussianInit
)

// Options configures the generators.
type Options struct {
	// MaxTests is Nt, the test budget (Eq. 6).
	MaxTests int
	// Coverage sets the parameter-activation threshold.
	Coverage coverage.Config
	// Eta is Algorithm 2's gradient step size η.
	Eta float64
	// Steps is Algorithm 2's iteration count T.
	Steps int
	// Init selects zero (paper) or Gaussian initialisation.
	Init InitMode
	// Clamp keeps synthesised inputs in [0,1] (the image domain) after
	// each update when true.
	Clamp bool
	// Seed drives Gaussian initialisation and random fill-in.
	Seed int64
	// StopOnZeroGain stops Algorithm 1 early once no candidate adds
	// coverage; off by default so coverage curves span the full budget
	// as in Fig. 3.
	StopOnZeroGain bool
	// Parallelism is the number of worker goroutines candidate
	// evaluation fans out across: activation extraction and per-class
	// synthesis split their work, each worker on its own clone of the
	// network. Values <= 1 run serially. Every parallel path is
	// bit-identical to the serial one for a fixed Seed, so this is
	// purely a speed knob.
	Parallelism int
	// Batch is the evaluation batch size within each worker: activation
	// extraction and synthesis stack up to Batch inputs and run the
	// batched forward/backward engine on them, turning per-sample matrix
	// products into large per-layer GEMMs. Zero selects per-workload
	// defaults — synthesis runs at coverage.DefaultBatch (its batched
	// input-only backward measures ~20% faster), while activation
	// extraction stays per-sample (its per-sample ∇θ backward dominates
	// and measures no win from batching); 1 forces the per-sample path
	// everywhere; larger values apply to both workloads. Batched
	// evaluation is bit-identical to per-sample at any size, so this too
	// is purely a speed knob.
	Batch int
	// Pool, when set, runs the generator fan-outs (activation
	// extraction, per-class synthesis) on this persistent worker pool
	// with per-worker pinned network clones, instead of spawning
	// goroutines and cloning per call — the construction cost of the
	// clones is paid once per run and amortised across every generator
	// phase. The pool's worker count takes the place of Parallelism, and
	// the suite is bit-identical to Parallelism = Pool.Workers() without
	// a pool: pinning is purely a speed knob, like every other knob
	// here. The caller owns the pool (Close it after the run); the
	// generators dispatch on it from one goroutine at a time.
	Pool *parallel.Pool
}

// DefaultOptions returns the options used throughout the evaluation.
// Parallelism defaults to the whole machine and Batch to the
// per-workload defaults; the generators produce the same suite at any
// setting.
func DefaultOptions(maxTests int) Options {
	return Options{
		MaxTests:    maxTests,
		Eta:         0.5,
		Steps:       30,
		Clamp:       true,
		Parallelism: parallel.Auto(),
	}
}

// workers resolves the Parallelism knob.
func (o Options) workers() int { return parallel.Workers(o.Parallelism) }

// extractionBatch resolves the Batch knob for activation extraction:
// per-sample unless an explicit batch was requested (negatives mean
// "unset", like zero).
func (o Options) extractionBatch() int {
	if o.Batch <= 0 {
		return 1
	}
	return o.Batch
}

// synthesisBatch resolves the Batch knob for input synthesis: the
// default evaluation batch unless an explicit batch was requested
// (negatives mean "unset", like zero).
func (o Options) synthesisBatch() int {
	if o.Batch <= 0 {
		return coverage.DefaultBatch
	}
	return o.Batch
}

func (o Options) validate() error {
	if o.MaxTests <= 0 {
		return fmt.Errorf("core: MaxTests must be positive, got %d", o.MaxTests)
	}
	return nil
}

// Result is a generated validation set with its coverage history.
type Result struct {
	// Tests are the generated inputs in selection order.
	Tests []*tensor.Tensor
	// Labels hold the training label (selected samples) or the target
	// class (synthetic samples) of each test.
	Labels []int
	// Sources records each test's provenance.
	Sources []Source
	// Curve[i] is the validation coverage after i+1 tests (Eq. 4).
	Curve []float64
	// SwitchPoint is the index of the first synthetic test, or -1 when
	// Algorithm 2 never produced one.
	SwitchPoint int
	// Covered is the final activated-parameter set of the whole suite;
	// per-layer breakdowns come from coverage.PerParam.
	Covered *bitset.Set
}

// FinalCoverage returns the coverage achieved by the full set.
func (r *Result) FinalCoverage() float64 {
	if len(r.Curve) == 0 {
		return 0
	}
	return r.Curve[len(r.Curve)-1]
}

// add appends one test and its coverage to the result.
func (r *Result) add(x *tensor.Tensor, label int, src Source, cov float64) {
	r.Tests = append(r.Tests, x)
	r.Labels = append(r.Labels, label)
	r.Sources = append(r.Sources, src)
	r.Curve = append(r.Curve, cov)
}

// SelectFromTraining implements Algorithm 1: iteratively add the
// training sample with the largest marginal validation-coverage gain
// (Eq. 7). Per-sample activation sets are computed once up front (fanned
// out across opts.Parallelism workers, batched within each); the greedy
// iterations then run on a lazy-greedy priority queue whose picks are
// bit-identical to a serial left-to-right rescan.
func SelectFromTraining(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rt := newGenRuntime(net, opts)
	sets := rt.paramSets(train)
	acc := coverage.NewAccumulator(net.NumParams())
	used := make([]bool, train.Len())
	scan := newGreedyScanner(sets, acc, rt.workers())
	res := &Result{SwitchPoint: -1}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(acc, used)
		if best < 0 {
			break // training set exhausted
		}
		if bestGain == 0 && opts.StopOnZeroGain {
			break
		}
		used[best] = true
		acc.Add(sets[best])
		res.add(train.Samples[best].X, train.Samples[best].Label, FromTraining, acc.Coverage())
	}
	res.Covered = acc.Set()
	return res, nil
}

// bestCandidateRange is the serial left-to-right reference scan over
// [lo,hi): the unused candidate with the largest gain, ties to the
// lowest index. The greedy scanner must match it pick for pick; tests
// hold the two against each other.
func bestCandidateRange(sets []*bitset.Set, used []bool, acc *coverage.Accumulator, lo, hi int) (int, int) {
	best, bestGain := -1, -1
	for i := lo; i < hi; i++ {
		if used[i] {
			continue
		}
		if g := acc.Gain(sets[i]); g > bestGain {
			best, bestGain = i, g
		}
	}
	return best, bestGain
}

// residualNet returns a copy of net whose *activated* parameters are
// zeroed, leaving only the still-unactivated parameters — the "network
// consisting of the un-activated parameters" that Algorithm 2 targets.
func residualNet(net *nn.Network, covered *bitset.Set) *nn.Network {
	vals := net.CopyParams()
	for i := range vals {
		if covered.Get(i) {
			vals[i] = 0
		}
	}
	clone := net.CloneArchitecture()
	clone.SetParams(vals)
	return clone
}

// Synthesize runs Algorithm 2's inner loop (lines 5–11): T gradient
// steps on the input so that target classifies it as class label,
// starting from zeros (paper) or Gaussian noise.
func Synthesize(target *nn.Network, inShape []int, label int, opts Options, rng *rand.Rand) *tensor.Tensor {
	return synthSteps(target, synthInit(inShape, opts, rng), label, opts)
}

// synthInit returns Algorithm 2's starting input, consuming rng exactly
// when (and only when) the serial path would.
func synthInit(inShape []int, opts Options, rng *rand.Rand) *tensor.Tensor {
	x := tensor.New(inShape...)
	if opts.Init == GaussianInit {
		x.FillNormal(rng, 0.5, 0.25)
		x.Clamp(0, 1)
	}
	return x
}

// synthSteps runs the T gradient steps of Algorithm 2 on x in place and
// returns it. It mutates target's gradient accumulators and layer
// caches, so concurrent callers need their own clone of target.
func synthSteps(target *nn.Network, x *tensor.Tensor, label int, opts Options) *tensor.Tensor {
	for t := 0; t < opts.Steps; t++ {
		target.ZeroGrad()
		logits := target.Forward(x)
		_, dLogits := nn.SoftmaxCrossEntropy(logits, label)
		dx := target.Backward(dLogits)
		x.AddScaled(-opts.Eta, dx)
		if opts.Clamp {
			x.Clamp(0, 1)
		}
	}
	return x
}

// synthStepsBatch runs the T gradient steps of Algorithm 2 on a stack
// of inputs simultaneously, xs[i] targeting class firstLabel+i. Each
// step is one batched forward/backward pass, so the per-class matrix
// products fuse into large per-layer GEMMs; every input row evolves by
// exactly the per-sample operation sequence, so the synthesised inputs
// are bit-identical to running synthSteps class by class. The stacked
// input and every layer intermediate live in target's workspaces, so
// after the first step a step allocates only a few headers and the
// [B, classes] logits and loss gradient.
func synthStepsBatch(target *nn.Network, xs []*tensor.Tensor, firstLabel int, opts Options) {
	x := target.StackBatch(xs)
	labels := make([]int, len(xs))
	for i := range labels {
		labels[i] = firstLabel + i
	}
	for t := 0; t < opts.Steps; t++ {
		logits := target.ForwardBatch(x)
		_, dLogits := nn.SoftmaxCrossEntropyBatch(logits, labels)
		// Synthesis never reads parameter gradients, so the input-only
		// backward skips the dW/db work entirely (the per-sample path
		// computes and discards it); the dx rows are bit-identical.
		dx := target.BackwardBatchInput(dLogits)
		x.AddScaled(-opts.Eta, dx)
		if opts.Clamp {
			x.Clamp(0, 1)
		}
	}
	sz := xs[0].Size()
	for i := range xs {
		copy(xs[i].Data(), x.Data()[i*sz:(i+1)*sz])
	}
}

// synthesizeBatch synthesises one input per class c in [0,classes)
// against target. The rng draws happen serially in class order — the
// identical stream to calling Synthesize class by class — and the
// gradient-descent work then fans out across workers, each on its own
// clone of target and each running its contiguous class chunk through
// the batched engine, so the outputs are bit-identical to the serial
// per-class loop at any worker count and batch size.
func synthesizeBatch(target *nn.Network, inShape []int, classes int, opts Options, rng *rand.Rand) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, classes)
	for c := range xs {
		xs[c] = synthInit(inShape, opts, rng)
	}
	workers := parallel.Effective(classes, opts.workers())
	if workers <= 1 {
		runSynth(target, xs, 0, classes, opts)
		return xs
	}
	clones := make([]*nn.Network, workers)
	for w := range clones {
		clones[w] = target.Clone()
	}
	parallel.For(classes, workers, func(w, lo, hi int) {
		runSynth(clones[w], xs, lo, hi, opts)
	})
	return xs
}

// runSynth drives the synthesis of xs[lo:hi] on net (xs[c] targeting
// class c), batching up to opts.synthesisBatch() classes per pass; the
// shared worker body of the per-call-clone and pool-pinned paths.
func runSynth(net *nn.Network, xs []*tensor.Tensor, lo, hi int, opts Options) {
	bsz := opts.synthesisBatch()
	for s := lo; s < hi; s += bsz {
		e := min(s+bsz, hi)
		if bsz <= 1 || e-s == 1 {
			for c := s; c < e; c++ {
				synthSteps(net, xs[c], c, opts)
			}
			continue
		}
		synthStepsBatch(net, xs[s:e], s, opts)
	}
}

// GradientGenerate implements Algorithm 2: per round, synthesise one
// input per class against the residual network of still-unactivated
// parameters, add all k to the validation set, and repeat until the
// budget is reached. Coverage is always measured on the full network.
func GradientGenerate(net *nn.Network, inShape []int, classes int, opts Options) (*Result, error) {
	return SynthesisFrom(net, inShape, classes, opts, nil)
}

// SynthesisFrom runs Algorithm 2 starting from an existing covered set
// (nil means empty); the building block of the fixed-switch-point
// ablation, where Algorithm 1's coverage seeds the synthesis phase.
func SynthesisFrom(net *nn.Network, inShape []int, classes int, opts Options, start *bitset.Set) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if classes <= 0 {
		return nil, fmt.Errorf("core: classes must be positive, got %d", classes)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rt := newGenRuntime(net, opts)
	acc := coverage.NewAccumulator(net.NumParams())
	if start != nil {
		acc.Add(start)
	}
	res := &Result{SwitchPoint: 0}

	// With zero initialisation, a round whose coverage does not grow
	// would regenerate exactly the same inputs forever (same start,
	// same residual). After a dry round the initialisation switches to
	// Gaussian restarts, so Algorithm 2 keeps exploring new basins and
	// the coverage keeps climbing as in the paper's Fig. 3 instead of
	// stalling.
	dry := false
	for len(res.Tests) < opts.MaxTests {
		residual := residualNet(net, acc.Set())
		roundOpts := opts
		if dry && opts.Init == ZeroInit {
			roundOpts.Init = GaussianInit
		}
		// One round synthesises classes inputs, truncated to the budget
		// exactly as the serial per-class loop would be; the synthesis and
		// the full-network activation extraction both fan out across the
		// worker pool, and the accumulator merge stays in class order.
		take := min(classes, opts.MaxTests-len(res.Tests))
		xs := rt.synthesize(residual, inShape, take, roundOpts, rng)
		sets := rt.paramSetsOf(xs)
		roundGain := 0
		for c := 0; c < take; c++ {
			roundGain += acc.Add(sets[c])
			res.add(xs[c], c, FromSynthesis, acc.Coverage())
		}
		dry = roundGain == 0
	}
	res.Covered = acc.Set()
	return res, nil
}

// Combined implements §IV-D: Algorithm 1 until its next marginal gain
// per test is beaten by Algorithm 2's expected gain per test (probed on
// the current residual network), then Algorithm 2 for the rest of the
// budget. The probe batch is reused as the first synthetic round on
// switching, so no synthesis work is wasted at the switch point.
func Combined(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	classes := train.Classes
	inShape := []int{train.C, train.H, train.W}
	rng := rand.New(rand.NewSource(opts.Seed))

	rt := newGenRuntime(net, opts)
	sets := rt.paramSets(train)
	acc := coverage.NewAccumulator(net.NumParams())
	used := make([]bool, train.Len())
	scan := newGreedyScanner(sets, acc, rt.workers())
	res := &Result{SwitchPoint: -1}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(acc, used)

		// Probe Algorithm 2 on the current residual network to estimate
		// its marginal coverage per test (§IV-D's switch criterion). The
		// per-class synthesis and activation extraction fan out; the
		// probe accumulator merges in class order, as serially.
		residual := residualNet(net, acc.Set())
		xs := rt.synthesize(residual, inShape, classes, opts, rng)
		probeSets := rt.paramSetsOf(xs)
		probeAcc := acc.Clone()
		probeGain := 0
		for c := 0; c < classes; c++ {
			probeGain += probeAcc.Add(probeSets[c])
		}
		gainPerSynthetic := float64(probeGain) / float64(classes)

		if best >= 0 && float64(bestGain) >= gainPerSynthetic {
			used[best] = true
			acc.Add(sets[best])
			res.add(train.Samples[best].X, train.Samples[best].Label, FromTraining, acc.Coverage())
			continue
		}

		// Switch: Algorithm 2 takes over, starting with the probe batch.
		res.SwitchPoint = len(res.Tests)
		for c := 0; c < classes && len(res.Tests) < opts.MaxTests; c++ {
			acc.Add(probeSets[c])
			res.add(xs[c], c, FromSynthesis, acc.Coverage())
		}
		if remaining := opts.MaxTests - len(res.Tests); remaining > 0 {
			tailOpts := opts
			tailOpts.MaxTests = remaining
			tail, err := SynthesisFrom(net, inShape, classes, tailOpts, acc.Set())
			if err != nil {
				return nil, err
			}
			tailSets := rt.paramSetsOf(tail.Tests)
			for i := range tail.Tests {
				acc.Add(tailSets[i])
				res.add(tail.Tests[i], tail.Labels[i], FromSynthesis, acc.Coverage())
			}
		}
		res.Covered = acc.Set()
		return res, nil
	}
	res.Covered = acc.Set()
	return res, nil
}

// RandomSelect picks MaxTests training samples uniformly at random; the
// naive baseline for the coverage curves.
func RandomSelect(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(train.Len())
	picks := perm[:min(opts.MaxTests, len(perm))]
	acc := coverage.NewAccumulator(net.NumParams())
	res := &Result{SwitchPoint: -1}
	// Activation extraction for the whole pick fans out across workers;
	// the union then accumulates in pick order, so the curve matches the
	// serial loop exactly.
	xs := make([]*tensor.Tensor, len(picks))
	for j, idx := range picks {
		xs[j] = train.Samples[idx].X
	}
	sets := newGenRuntime(net, opts).paramSetsOf(xs)
	for j, idx := range picks {
		s := train.Samples[idx]
		acc.Add(sets[j])
		res.add(s.X, s.Label, FromTraining, acc.Coverage())
	}
	res.Covered = acc.Set()
	return res, nil
}

// NeuronGreedy is the baseline of Tables II/III: greedy selection from
// the training set maximising *neuron* coverage (Ma et al. [11]). Once
// neuron coverage saturates, the remaining budget is filled with random
// training samples, as additional tests cannot improve the criterion.
// The Curve still records *parameter* coverage so the two criteria can
// be compared on the same axis.
func NeuronGreedy(net *nn.Network, train *data.Dataset, ncfg coverage.NeuronConfig, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	inShape := []int{train.C, train.H, train.W}
	nNeurons := coverage.NumNeurons(net, inShape)
	rt := newGenRuntime(net, opts)
	workers := rt.workers()

	neuronSets := rt.neuronSets(train, ncfg)
	used := make([]bool, train.Len())
	nAcc := coverage.NewAccumulator(nNeurons)
	pAcc := coverage.NewAccumulator(net.NumParams())
	scan := newGreedyScanner(neuronSets, nAcc, workers)
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{SwitchPoint: -1}

	add := func(i int) {
		used[i] = true
		nAcc.Add(neuronSets[i])
		s := train.Samples[i]
		pAcc.Add(coverage.ParamActivation(net, s.X, opts.Coverage))
		res.add(s.X, s.Label, FromTraining, pAcc.Coverage())
	}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(nAcc, used)
		if best < 0 || bestGain == 0 {
			break // neuron coverage saturated
		}
		add(best)
	}
	for _, i := range rng.Perm(train.Len()) {
		if len(res.Tests) >= opts.MaxTests {
			break
		}
		if !used[i] {
			add(i)
		}
	}
	res.Covered = pAcc.Set()
	return res, nil
}
