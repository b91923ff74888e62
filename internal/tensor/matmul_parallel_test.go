package tensor

import (
	"math/rand"
	"testing"
)

// forceParallel drops the serial-fallback threshold and pins the worker
// bound so even tiny products take the parallel path, restoring both on
// cleanup. Kernel globals are package-level, so these tests must not run
// in parallel with each other.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	prevFlops := gemmMinFlopsPerWorker
	prevWorkers := Parallelism()
	gemmMinFlopsPerWorker = 1
	SetParallelism(workers)
	t.Cleanup(func() {
		gemmMinFlopsPerWorker = prevFlops
		SetParallelism(prevWorkers)
	})
}

// serialOnly pins the kernels to one worker for the duration of fn.
func serialOnly(fn func()) {
	prev := Parallelism()
	SetParallelism(1)
	defer SetParallelism(prev)
	fn()
}

func randMat(rng *rand.Rand, rows, cols int) *Tensor {
	m := New(rows, cols)
	for i := range m.Data() {
		// Include exact zeros so the av==0 skip is exercised.
		if rng.Intn(5) == 0 {
			continue
		}
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// gemmShapes are the property-test shapes: degenerate (m=1, k=1, n=1),
// odd, prime, and worker-count-adjacent sizes.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{5, 1, 7},
	{7, 5, 1},
	{2, 3, 4},
	{3, 3, 3},
	{13, 17, 11},
	{31, 1, 31},
	{64, 63, 65},
	{127, 32, 9},
}

func tensorsEqualBitwise(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d vs %d", name, got.Size(), want.Size())
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("%s: element %d = %v, want %v (parallel path must be bit-identical)",
				name, i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, workers := range []int{2, 3, 8} {
		forceParallel(t, workers)
		for _, s := range gemmShapes {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			var want *Tensor
			serialOnly(func() { want = MatMul(a, b) })
			tensorsEqualBitwise(t, "MatMul", MatMul(a, b), want)
		}
	}
}

func TestMatMulIntoParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	forceParallel(t, 4)
	for _, s := range gemmShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		seed := randMat(rng, s.m, s.n)
		for _, accumulate := range []bool{false, true} {
			want := seed.Clone()
			serialOnly(func() { MatMulInto(want, a, b, accumulate) })
			got := seed.Clone()
			MatMulInto(got, a, b, accumulate)
			tensorsEqualBitwise(t, "MatMulInto", got, want)
		}
	}
}

func TestMatMulTAParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	forceParallel(t, 5)
	for _, s := range gemmShapes {
		a := randMat(rng, s.k, s.m)
		b := randMat(rng, s.k, s.n)
		var want *Tensor
		serialOnly(func() { want = MatMulTA(a, b) })
		tensorsEqualBitwise(t, "MatMulTA", MatMulTA(a, b), want)
	}
}

func TestMatMulTBParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	forceParallel(t, 5)
	for _, s := range gemmShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.n, s.k)
		var want *Tensor
		serialOnly(func() { want = MatMulTB(a, b) })
		tensorsEqualBitwise(t, "MatMulTB", MatMulTB(a, b), want)
	}
}

func TestKernelWorkersFallsBackToSerial(t *testing.T) {
	prev := Parallelism()
	SetParallelism(8)
	defer SetParallelism(prev)
	if w := kernelWorkers(4, 4*4*4); w != 1 {
		t.Fatalf("tiny product got %d workers, want serial fallback", w)
	}
	if w := kernelWorkers(2, 1<<30); w != 2 {
		t.Fatalf("2-row product got %d workers, want 2 (never more workers than rows)", w)
	}
}

func BenchmarkMatMulSerial(b *testing.B)   { benchMatMul(b, 1) }
func BenchmarkMatMulParallel(b *testing.B) { benchMatMul(b, 0) }

func benchMatMul(b *testing.B, workers int) {
	prev := Parallelism()
	if workers < 1 {
		SetParallelism(Parallelism())
	} else {
		SetParallelism(workers)
	}
	defer SetParallelism(prev)
	rng := rand.New(rand.NewSource(1))
	const m, k, n = 256, 256, 256
	x := randMat(rng, m, k)
	y := randMat(rng, k, n)
	c := New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, x, y, false)
	}
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
}
