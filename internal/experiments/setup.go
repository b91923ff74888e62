// Package experiments reproduces the paper's evaluation: Fig. 2 (probe
// set coverage), Fig. 3 (coverage vs suite size per method), Fig. 4
// (real vs synthetic samples), Tables II/III (detection rates under
// SBA/GDA/random perturbations for neuron- vs parameter-coverage
// suites), plus the ablations called out in DESIGN.md.
//
// The paper's testbed (MNIST/CIFAR-10 on GPU-trained full-width models)
// is replaced by procedural datasets and width-scaled Table I stacks —
// see DESIGN.md §2. Absolute numbers differ; every driver reports the
// quantities whose *shape* the paper establishes.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// Params sizes one experimental testbed.
type Params struct {
	// H, W is the input geometry (the Table I stacks need ≥ 16).
	H, W int
	// Scale multiplies the Table I layer widths.
	Scale float64
	// TrainN is the training set size; SelectN the pool Algorithm 1
	// selects from.
	TrainN, SelectN int
	// Epochs and LR drive training.
	Epochs int
	LR     float64
	// Seed fixes every random choice.
	Seed int64
	// Parallelism, when positive, bounds the worker goroutines used for
	// training and suite generation (1 forces both fully serial). Zero
	// keeps the defaults: serial training — so a testbed's trained
	// weights are a function of Seed alone, machine-independent — and
	// whole-machine generation, which is bit-identical to serial.
	Parallelism int
	// Batch, when positive, sets the evaluation batch size of suite
	// generation (1 runs one sample per pass). Zero keeps the default
	// batch. Generation is bit-identical at any value.
	Batch int
}

// DefaultMNISTParams returns the experiment-quality MNIST-substitute
// testbed: the Table I Tanh stack at quarter width on 20×20 procedural
// digits.
func DefaultMNISTParams() Params {
	return Params{H: 20, W: 20, Scale: 0.25, TrainN: 800, SelectN: 300, Epochs: 6, LR: 0.002, Seed: 1}
}

// DefaultCIFARParams returns the experiment-quality CIFAR-substitute
// testbed: the Table I ReLU stack at quarter width on 20×20 procedural
// colour objects.
func DefaultCIFARParams() Params {
	return Params{H: 20, W: 20, Scale: 0.25, TrainN: 800, SelectN: 300, Epochs: 8, LR: 0.002, Seed: 2}
}

// FastMNISTParams returns a reduced testbed for tests. 20×20 keeps the
// dense head non-degenerate (a 16×16 input collapses the Table I stack
// to a 1×1 spatial bottleneck).
func FastMNISTParams() Params {
	return Params{H: 20, W: 20, Scale: 0.12, TrainN: 250, SelectN: 60, Epochs: 5, LR: 0.003, Seed: 1}
}

// FastCIFARParams returns a reduced testbed for tests.
func FastCIFARParams() Params {
	return Params{H: 20, W: 20, Scale: 0.12, TrainN: 250, SelectN: 60, Epochs: 6, LR: 0.003, Seed: 2}
}

// Setup is a trained testbed shared by the experiment drivers.
type Setup struct {
	Name     string
	Net      *nn.Network
	Arch     models.Arch
	Train    *data.Dataset // full training set
	Select   *data.Dataset // pool Algorithm 1 selects from
	Classes  int
	InShape  []int
	Cov      coverage.Config
	Accuracy float64
	Params   Params
}

// GenOptions returns the generator options every experiment driver
// starts from: the setup's budgeted defaults, honouring the testbed's
// Parallelism and Batch overrides. Generation is bit-identical at any
// worker count and batch size, so the knobs only change wall-clock time.
func (s *Setup) GenOptions(maxTests int) core.Options {
	opts := core.DefaultOptions(maxTests)
	if s.Params.Parallelism > 0 {
		opts.Parallelism = s.Params.Parallelism
	}
	if s.Params.Batch > 0 {
		opts.Batch = s.Params.Batch
	}
	return opts
}

// NewMNISTSetup trains the MNIST-substitute testbed.
func NewMNISTSetup(p Params) (*Setup, error) {
	arch := models.MNIST(p.H, p.W, p.Scale)
	ds := data.Digits(p.TrainN, p.H, p.W, p.Seed+100)
	return newSetup("mnist", arch, ds, p)
}

// NewCIFARSetup trains the CIFAR-substitute testbed.
func NewCIFARSetup(p Params) (*Setup, error) {
	arch := models.CIFAR(p.H, p.W, p.Scale)
	ds := data.Objects(p.TrainN, p.H, p.W, p.Seed+200)
	return newSetup("cifar", arch, ds, p)
}

func newSetup(name string, arch models.Arch, ds *data.Dataset, p Params) (*Setup, error) {
	net, err := arch.Build(p.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s: %w", name, err)
	}
	res, err := train.Fit(net, ds, train.Config{
		Epochs:      p.Epochs,
		BatchSize:   16,
		Optimizer:   train.NewAdam(p.LR),
		Seed:        p.Seed,
		Parallelism: p.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train %s: %w", name, err)
	}
	sel := ds.Subset(p.SelectN)
	return &Setup{
		Name:     name,
		Net:      net,
		Arch:     arch,
		Train:    ds,
		Select:   sel,
		Classes:  ds.Classes,
		InShape:  []int{ds.C, ds.H, ds.W},
		Cov:      coverage.DefaultConfig(net),
		Accuracy: res.TrainAccuracy,
		Params:   p,
	}, nil
}
