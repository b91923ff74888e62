package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// f32TestNet builds a full conv-pool-act-dense stack with the given
// activation, deterministically initialised.
func f32TestNet(act Activation) *Network {
	rng := rand.New(rand.NewSource(99))
	c1 := NewConv2D("conv1", 1, 10, 10, 4, 3, 1, 1)
	c1.Init(rng)
	d1 := NewDense("fc1", 4*5*5, 16)
	d1.Init(rng)
	d2 := NewDense("fc2", 16, 4)
	d2.Init(rng)
	return NewNetwork(
		NewScaleShift("norm", 2, -1),
		c1,
		NewActivate("a1", act),
		NewMaxPool2D("pool", 4, 10, 10, 2, 2),
		NewFlatten("flat"),
		d1,
		NewActivate("a2", act),
		d2,
	)
}

func f32TestInputs(n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(5))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(1, 10, 10)
		xs[i].FillNormal(rng, 0.5, 0.2)
		xs[i].Clamp(0, 1)
	}
	return xs
}

// TestConvertF32MatchesFloat64: the float32 forward pass must agree
// with the float64 reference within float32 rounding, for every
// activation.
func TestConvertF32MatchesFloat64(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, LeakyReLU} {
		net := f32TestNet(act)
		f32 := net.ConvertF32()
		xs := f32TestInputs(5)
		const tol = 1e-4
		for i, x := range xs {
			want := net.Forward(x)
			got := f32.Forward(x.F32())
			if got.Size() != want.Size() {
				t.Fatalf("%v: f32 output size %d, want %d", act, got.Size(), want.Size())
			}
			for j := range want.Data() {
				if d := math.Abs(float64(got.Data()[j]) - want.Data()[j]); d > tol {
					t.Fatalf("%v: input %d logit %d off by %g (f32 %v vs f64 %v)",
						act, i, j, d, got.Data()[j], want.Data()[j])
				}
			}
		}
	}
}

// TestF32ForwardBatchBitIdenticalToPerSample: the float32 logits of a
// sample must not depend on its batch — a 6-sample batch, six
// one-sample Forward passes and an uneven 4+2 split agree bitwise, the
// same kernel-sequence argument as the float64 engine's guarantee.
func TestF32ForwardBatchBitIdenticalToPerSample(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, LeakyReLU} {
		f32 := f32TestNet(act).ConvertF32()
		xs := f32TestInputs(6)
		xs32 := make([]*tensor.T32, len(xs))
		for i, x := range xs {
			xs32[i] = x.F32()
		}
		logits := f32.ForwardBatch(tensor.Stack(xs32))
		head := f32.ForwardBatch(tensor.Stack(xs32[:4]))
		tail := f32.ForwardBatch(tensor.Stack(xs32[4:]))
		for i, x := range xs32 {
			want := f32.Forward(x)
			split := head
			if i >= 4 {
				split = tail
			}
			for k, row := range []*tensor.T32{logits.Sample(i), split.Sample(i % 4)} {
				for j := range want.Data() {
					if row.Data()[j] != want.Data()[j] {
						t.Fatalf("%v: %s f32 logit [%d][%d] = %x, one-sample pass %x",
							act, []string{"batched", "split"}[k], i, j, row.Data()[j], want.Data()[j])
					}
				}
			}
		}
	}
}

// TestF32SyncParamsRequantises: after the float64 master changes,
// SyncParamsFrom must re-quantise the float32 clone to the new values.
func TestF32SyncParamsRequantises(t *testing.T) {
	net := f32TestNet(ReLU)
	f32 := net.ConvertF32()
	x := f32TestInputs(1)[0]

	before := f32.Forward(x.F32()).Clone()
	net.SetParamAt(0, net.ParamAt(0)+1)
	// The clone must not see the master's change until synced.
	if got := f32.Forward(x.F32()); got.Data()[0] != before.Data()[0] {
		t.Fatal("float32 clone observed master mutation before SyncParamsFrom")
	}
	f32.SyncParamsFrom(net)
	want := net.ConvertF32().Forward(x.F32())
	got := f32.Forward(x.F32())
	for j := range want.Data() {
		if got.Data()[j] != want.Data()[j] {
			t.Fatalf("synced f32 logit %d = %v, want %v", j, got.Data()[j], want.Data()[j])
		}
	}
}

// TestF32CloneIndependence: clones share no mutable state — syncing one
// must not affect another.
func TestF32CloneIndependence(t *testing.T) {
	net := f32TestNet(ReLU)
	f32 := net.ConvertF32()
	c := f32.Clone()
	x := f32TestInputs(1)[0].F32()
	before := c.Forward(x).Clone()

	net.SetParamAt(0, net.ParamAt(0)+2)
	f32.SyncParamsFrom(net)
	after := c.Forward(x)
	for j := range before.Data() {
		if after.Data()[j] != before.Data()[j] {
			t.Fatal("syncing one float32 clone mutated another")
		}
	}
}

// TestClonePoolF32ConcurrentSync: concurrent evaluation and hot
// re-quantisation on a ClonePoolF32 must never tear — every forward
// sees either the old or the new parameter set, nothing in between.
// Under -race this is the float32 serving fleet's isolation test.
func TestClonePoolF32ConcurrentSync(t *testing.T) {
	net := f32TestNet(ReLU)
	pool := NewClonePoolF32(net, 3)
	x := f32TestInputs(1)[0].F32()

	oldOut := net.ConvertF32().Forward(x).Clone()
	newNet := f32TestNet(ReLU)
	newNet.SetParamAt(0, newNet.ParamAt(0)+3)
	newOut := newNet.ConvertF32().Forward(x).Clone()

	match := func(got, want *tensor.T32) bool {
		for j := range want.Data() {
			if got.Data()[j] != want.Data()[j] {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := 0; trial < 25; trial++ {
				c := pool.Acquire()
				got := c.Forward(x)
				if !match(got, oldOut) && !match(got, newOut) {
					errs <- "pool clone served a torn parameter set"
				}
				pool.Release(c)
			}
		}()
	}
	pool.SyncParamsFrom(newNet)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	c := pool.Acquire()
	defer pool.Release(c)
	if !match(c.Forward(x), newOut) {
		t.Fatal("pool clone not re-quantised after SyncParamsFrom")
	}
}

// TestClonePoolF32Size: the pool hands out exactly Size distinct clones.
func TestClonePoolF32Size(t *testing.T) {
	pool := NewClonePoolF32(f32TestNet(ReLU), 2)
	if pool.Size() != 2 {
		t.Fatalf("Size = %d, want 2", pool.Size())
	}
	a, b := pool.Acquire(), pool.Acquire()
	if a == b {
		t.Fatal("pool handed out the same clone twice")
	}
	pool.Release(a)
	pool.Release(b)
}
