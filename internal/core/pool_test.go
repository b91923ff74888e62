package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPoolGeneratorsBitIdentical: Options.Pool is purely a speed knob —
// for every generator, the suite produced on a persistent pool with
// pinned clones must equal the suite produced by the spawn-per-call
// path at the same worker count, bit for bit.
func TestPoolGeneratorsBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	train := digitsTrainSet()
	const workers = 3

	pool := parallel.NewPool(workers)
	defer pool.Close()

	gens := []struct {
		name string
		run  func(opts Options) (*Result, error)
	}{
		{"select", func(opts Options) (*Result, error) { return SelectFromTraining(net, train, opts) }},
		{"gradient", func(opts Options) (*Result, error) {
			return GradientGenerate(net, []int{train.C, train.H, train.W}, train.Classes, opts)
		}},
		{"combined", func(opts Options) (*Result, error) { return Combined(net, train, opts) }},
		{"random", func(opts Options) (*Result, error) { return RandomSelect(net, train, opts) }},
		{"neuron", func(opts Options) (*Result, error) {
			return NeuronGreedy(net, train, coverage.NeuronConfig{}, opts)
		}},
	}
	for _, g := range gens {
		opts := parallelOpts(12, workers)
		opts.Coverage = coverage.DefaultConfig(net)
		want, err := g.run(opts)
		if err != nil {
			t.Fatalf("%s without pool: %v", g.name, err)
		}
		pooled := opts
		pooled.Pool = pool
		got, err := g.run(pooled)
		if err != nil {
			t.Fatalf("%s with pool: %v", g.name, err)
		}
		resultsBitIdentical(t, g.name+"/pool", got, want)
	}
}

// TestPinnedExtractorMatchesParamSets: the pinned extractor must
// reproduce ParamSetsParallel/ParamSetsOf exactly, including after a
// Sync, at batch 1 and larger batches.
func TestPinnedExtractorMatchesParamSets(t *testing.T) {
	net := trainedDigitsNet()
	train := data.Digits(20, 12, 12, 107)
	cfg := coverage.DefaultConfig(net)

	for _, batch := range []int{1, 4} {
		pool := parallel.NewPool(3)
		ext := coverage.NewPinnedExtractor(net, pool, batch)

		want := coverage.ParamSetsParallel(net, train, cfg, 3, batch)
		got := ext.ParamSets(train, cfg)
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("batch %d: pinned ParamSets differs at sample %d", batch, i)
			}
		}

		// Sync against a perturbed master changes the extraction like a
		// fresh per-call clone of that master would.
		perturbed := net.Clone()
		perturbed.SetParamAt(0, perturbed.ParamAt(0)+3)
		ext.Sync(perturbed)
		xs := train.Samples[0].X
		wantP := coverage.ParamSetsOf(perturbed, []*tensor.Tensor{xs}, cfg, 1, batch)
		gotP := ext.ParamSetsOf([]*tensor.Tensor{xs}, cfg)
		if !gotP[0].Equal(wantP[0]) {
			t.Fatalf("batch %d: pinned extraction after Sync differs", batch)
		}
		pool.Close()
	}
}
