package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// The batched passes write into grow-only layer workspaces (batch.go).
// These tests pin the contract: reuse across batch sizes never changes
// a bit, Network.ForwardBatch's logits never alias, and
// ReleaseBatchState drops every workspace.

// TestWorkspaceReuseBitIdentical drives one network through
// ForwardBatch → BackwardBatchInput / BackwardBatch / BackwardSample
// over and over, with the batch size alternating 1, 5, 16, 5 and fresh
// inputs each time, and demands that every result equal — bit for bit —
// the result of a freshly cloned network whose workspaces are empty.
// Shrinking and regrowing batches leave stale values in every
// workspace, so any kernel that relied on a zeroed buffer shows here.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	for _, bed := range batchBeds() {
		base := bed.build()
		net := base.Clone()
		rng := rand.New(rand.NewSource(31))
		for round, B := range []int{1, 5, 16, 5, 1, 16} {
			name := bed.name
			xs := randBatch(rng, B, bed.inShape)
			labels := make([]int, B)
			for i := range labels {
				labels[i] = rng.Intn(bed.classes)
			}
			X := tensor.Stack(xs)

			fresh := base.Clone()
			want := fresh.ForwardBatch(X)
			got := net.ForwardBatch(net.StackBatch(xs))
			sameData(t, name+"/logits", got.Data(), want.Data())

			_, dLogits := SoftmaxCrossEntropyBatch(want, labels)
			wantDX := base.Clone()
			wantDX.ForwardBatch(X)
			sameData(t, name+"/dx-input", net.BackwardBatchInput(dLogits).Data(), wantDX.BackwardBatchInput(dLogits).Data())

			fresh = base.Clone()
			fresh.ForwardBatch(X)
			net.ZeroGrad()
			sameData(t, name+"/dx-batch", net.BackwardBatch(dLogits).Data(), fresh.BackwardBatch(dLogits).Data())
			for i, p := range net.Params() {
				sameData(t, name+"/grad:"+p.Name, p.Grad.Data(), fresh.Params()[i].Grad.Data())
			}

			ones := OnesLike(want.Sample(0))
			for b := 0; b < B; b++ {
				fresh = base.Clone()
				fresh.ForwardBatch(X)
				net.ZeroGrad()
				sameData(t, name+"/dx-sample", net.BackwardSample(b, ones).Data(), fresh.BackwardSample(b, ones).Data())
				for i, p := range net.Params() {
					sameData(t, name+"/sample-grad:"+p.Name, p.Grad.Data(), fresh.Params()[i].Grad.Data())
				}
			}
			if t.Failed() {
				t.Fatalf("%s: round %d (B=%d) diverged from a fresh network", name, round, B)
			}
		}
	}
}

// TestForwardBatchLogitsDoNotAlias: the logits of two successive
// Network.ForwardBatch calls live in separate storage, and the second
// call leaves the first call's values untouched — servers hand logits
// to clients after the clone has gone back to its pool.
func TestForwardBatchLogitsDoNotAlias(t *testing.T) {
	for _, bed := range batchBeds() {
		net := bed.build()
		rng := rand.New(rand.NewSource(32))
		first := net.ForwardBatch(tensor.Stack(randBatch(rng, 4, bed.inShape)))
		kept := first.Clone()
		second := net.ForwardBatch(tensor.Stack(randBatch(rng, 4, bed.inShape)))
		if &first.Data()[0] == &second.Data()[0] {
			t.Fatalf("%s: successive ForwardBatch logits share storage", bed.name)
		}
		sameData(t, bed.name+"/first-logits", first.Data(), kept.Data())
	}
}

// TestReleaseBatchStateDropsWorkspaces runs every pass (and the
// one-sample Forward/Backward) on each bed, releases, and checks by
// reflection that no unexported pointer, slice, map, interface or int
// field of any layer survives — every workspace and cache, including
// any field added later that the release forgets.
func TestReleaseBatchStateDropsWorkspaces(t *testing.T) {
	for _, bed := range batchBeds() {
		net := bed.build()
		rng := rand.New(rand.NewSource(33))
		xs := randBatch(rng, 3, bed.inShape)
		logits := net.ForwardBatch(net.StackBatch(xs))
		ones := OnesLike(logits)
		net.BackwardBatchInput(ones)
		net.BackwardBatch(ones)
		net.BackwardSample(1, OnesLike(logits.Sample(0)))
		net.Backward(OnesLike(net.Forward(xs[0])))

		net.ReleaseBatchState()
		if net.stack != nil {
			t.Fatalf("%s: StackBatch workspace survived ReleaseBatchState", bed.name)
		}
		for _, l := range net.LayerStack {
			v := reflect.ValueOf(l).Elem()
			typ := v.Type()
			for i := 0; i < v.NumField(); i++ {
				f := typ.Field(i)
				key := typ.Name() + "." + f.Name
				if f.IsExported() {
					continue
				}
				switch fv := v.Field(i); fv.Kind() {
				case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
					if !fv.IsNil() {
						t.Errorf("%s: %s survived ReleaseBatchState", bed.name, key)
					}
				case reflect.Int:
					if fv.Int() != 0 {
						t.Errorf("%s: %s = %d after ReleaseBatchState, want 0", bed.name, key, fv.Int())
					}
				}
			}
		}
	}
}
