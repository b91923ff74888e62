package train

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func parallelTestbed(t *testing.T) (*nn.Network, *data.Dataset) {
	t.Helper()
	net, err := models.CIFAR(16, 16, 0.05).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	return net, data.Objects(90, 16, 16, 11)
}

func fitOnce(t *testing.T, parallelism int) *nn.Network {
	t.Helper()
	net, ds := parallelTestbed(t)
	_, err := Fit(net, ds, Config{
		Epochs:      2,
		BatchSize:   16,
		Optimizer:   NewAdam(0.002),
		Seed:        5,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFitBatchedMatchesPerSample: a minibatch's gradient must not depend
// on how gradChunk splits it. One 16-sample pass, sixteen one-sample
// passes and uneven splits must accumulate bit-identical parameter
// gradients and per-sample losses — the property that makes training
// with Parallelism 1 and 0 identical and lets a worker's chunk be any
// size, down to one sample.
func TestFitBatchedMatchesPerSample(t *testing.T) {
	net, ds := parallelTestbed(t)
	idxs := rand.New(rand.NewSource(8)).Perm(ds.Len())[:16]
	run := func(splits []int) (grads, losses []float64) {
		c := net.Clone()
		lo := 0
		for _, hi := range splits {
			losses = append(losses, gradChunk(c, ds, idxs[lo:hi])...)
			lo = hi
		}
		for i := 0; i < c.NumParams(); i++ {
			grads = append(grads, c.GradAt(i))
		}
		return grads, losses
	}
	wantGrads, wantLosses := run([]int{16})
	ones := make([]int, 16)
	for i := range ones {
		ones[i] = i + 1
	}
	for _, splits := range [][]int{ones, {5, 6, 16}, {1, 3, 10, 16}} {
		grads, losses := run(splits)
		for i, g := range grads {
			if g != wantGrads[i] {
				t.Fatalf("splits %v: grad %d = %v, one 16-sample pass gives %v", splits, i, g, wantGrads[i])
			}
		}
		for i, l := range losses {
			if l != wantLosses[i] {
				t.Fatalf("splits %v: loss %d = %v, one 16-sample pass gives %v", splits, i, l, wantLosses[i])
			}
		}
	}
}

// TestAccuracyBatchedMatchesPerSample pins Accuracy's batched evaluator
// (a 64-sample batch and an uneven 26-sample remainder) to one-sample
// Predict passes.
func TestAccuracyBatchedMatchesPerSample(t *testing.T) {
	net, ds := parallelTestbed(t)
	correct := 0
	for _, s := range ds.Samples {
		if net.Predict(s.X) == s.Label {
			correct++
		}
	}
	want := float64(correct) / float64(ds.Len())
	if got := Accuracy(net, ds); got != want {
		t.Fatalf("batched Accuracy = %v, one-sample passes %v", got, want)
	}
}

// TestFitParallelDeterministic: the parallel trainer must be a pure
// function of (seed, parallelism) — two runs at the same worker count
// produce bit-identical parameters.
func TestFitParallelDeterministic(t *testing.T) {
	a := fitOnce(t, 4)
	b := fitOnce(t, 4)
	for i := 0; i < a.NumParams(); i++ {
		if a.ParamAt(i) != b.ParamAt(i) {
			t.Fatalf("param %d differs between identical parallel runs: %v vs %v",
				i, a.ParamAt(i), b.ParamAt(i))
		}
	}
}

// TestFitParallelConverges: the parallel trainer must actually learn —
// same testbed, same budget, accuracy in the same band as serial.
func TestFitParallelConverges(t *testing.T) {
	serial := fitOnce(t, 1)
	par := fitOnce(t, 4)
	_, ds := parallelTestbed(t)
	accSerial, accPar := Accuracy(serial, ds), Accuracy(par, ds)
	if accPar < accSerial-0.15 {
		t.Fatalf("parallel training accuracy %.3f far below serial %.3f", accPar, accSerial)
	}
}

// TestFitParallelismOneIsSerialPath: Parallelism 1 and 0 must both take
// the exact serial path and produce bit-identical results.
func TestFitParallelismOneIsSerialPath(t *testing.T) {
	a := fitOnce(t, 0)
	b := fitOnce(t, 1)
	for i := 0; i < a.NumParams(); i++ {
		if a.ParamAt(i) != b.ParamAt(i) {
			t.Fatalf("param %d differs between Parallelism 0 and 1", i)
		}
	}
}
