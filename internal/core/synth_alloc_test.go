package core

import (
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// maxSynthStepAllocs bounds the allocations of one steady-state batched
// synthesis step of 5 classes. What is left after the layer workspaces
// is tensor headers — a two-allocation sample view per convolution per
// sample (40 here) and about 20 reshape headers, the [B, classes]
// logits copy and the loss gradient — none of which grows with the
// layer sizes. Before the workspaces a step on this network made about
// 400 allocations totalling about 3.8 MB.
const maxSynthStepAllocs = 64

// maxSynthStepBytes bounds the bytes those allocations total.
const maxSynthStepBytes = 8 << 10

// TestSynthesisStepAllocationFree pins the workspace reuse of
// Algorithm 2's hot loop on the benchmark's CIFAR stack (3×20×20,
// scale 0.12): after a warm-up step, further steps on the same network
// allocate only small headers, and their total bytes stay far below one
// layer's im2col matrix (conv1's is 342 KiB at B=5).
func TestSynthesisStepAllocationFree(t *testing.T) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(1) // the kernel fan-out allocates its closures
	defer tensor.SetParallelism(prev)

	net, err := models.CIFAR(20, 20, 0.12).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(10)
	opts.Steps = 1
	xs := make([]*tensor.Tensor, 5)
	for i := range xs {
		xs[i] = tensor.New(3, 20, 20)
		xs[i].Fill(0.25)
	}
	synthStepsBatch(net, xs, 0, opts) // warm-up grows the workspaces

	allocs := testing.AllocsPerRun(20, func() { synthStepsBatch(net, xs, 0, opts) })
	if allocs > maxSynthStepAllocs {
		t.Fatalf("steady-state synthesis step made %.0f allocations, want at most %d", allocs, maxSynthStepAllocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		synthStepsBatch(net, xs, 0, opts)
	}
	runtime.ReadMemStats(&after)
	if perStep := (after.TotalAlloc - before.TotalAlloc) / runs; perStep > maxSynthStepBytes {
		t.Fatalf("steady-state synthesis step allocated %d bytes, want at most %d", perStep, maxSynthStepBytes)
	}
}
