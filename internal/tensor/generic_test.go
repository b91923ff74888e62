package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The generic kernel layer's contract: the float64 instantiation is the
// reference (its bit-identity tests live in matmul_parallel_test.go and
// tensor_test.go, running against Tensor = T64), the float32
// instantiation must (a) agree with float64 within float32 rounding and
// (b) keep the precision-independent parallel guarantee — panels
// bit-identical to serial at any worker count.

func randMat32(rng *rand.Rand, rows, cols int) *T32 {
	m := New32(rows, cols)
	for i := range m.Data() {
		if rng.Intn(5) == 0 {
			continue // keep exact zeros so the av==0 skip is exercised
		}
		m.Data()[i] = float32(rng.NormFloat64())
	}
	return m
}

func t32EqualBitwise(t *testing.T, name string, got, want *T32) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("%s: element %d = %x, want %x", name, i, got.Data()[i], want.Data()[i])
		}
	}
}

// TestF32KernelsMatchF64 checks every float32 kernel against the
// float64 reference on the property-test shapes: converting the
// operands down, running the float32 kernel, and comparing against the
// float64 product must agree to float32 rounding accumulated over k
// terms.
func TestF32KernelsMatchF64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmShapes {
		a64, b64 := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n)
		check := func(name string, got32 *T32, want64 *Tensor, k int) {
			t.Helper()
			tol := 1e-5 * float64(k+1)
			for i := range want64.Data() {
				if d := math.Abs(float64(got32.Data()[i]) - want64.Data()[i]); d > tol {
					t.Fatalf("%s %dx%dx%d: element %d off by %g (tol %g)", name, s.m, s.k, s.n, i, d, tol)
				}
			}
		}
		check("MatMul", MatMul(a64.F32(), b64.F32()), MatMul(a64, b64), s.k)
		at64 := randMat(rng, s.k, s.m)
		check("MatMulTA", MatMulTA(at64.F32(), b64.F32()), MatMulTA(at64, b64), s.k)
		bt64 := randMat(rng, s.n, s.k)
		check("MatMulTB", MatMulTB(a64.F32(), bt64.F32()), MatMulTB(a64, bt64), s.k)
	}
}

// TestF32ParallelBitIdentical: the row-panel parallel path of the
// float32 kernels must be bit-identical to their serial path, exactly
// as the float64 tests in matmul_parallel_test.go pin for T64.
func TestF32ParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		forceParallel(t, workers)
		rng := rand.New(rand.NewSource(11))
		for _, s := range gemmShapes {
			a, b := randMat32(rng, s.m, s.k), randMat32(rng, s.k, s.n)
			var want *T32
			serialOnly(func() { want = MatMul(a, b) })
			t32EqualBitwise(t, "MatMul/f32", MatMul(a, b), want)

			at := randMat32(rng, s.k, s.m)
			var wantTA *T32
			serialOnly(func() { wantTA = MatMulTA(at, b) })
			t32EqualBitwise(t, "MatMulTA/f32", MatMulTA(at, b), wantTA)

			bt := randMat32(rng, s.n, s.k)
			var wantTB *T32
			serialOnly(func() { wantTB = MatMulTB(a, bt) })
			t32EqualBitwise(t, "MatMulTB/f32", MatMulTB(a, bt), wantTB)
		}
	}
}

// TestIm2ColF32MatchesF64: the lowering is pure data movement, so the
// float32 path must produce exactly the converted float64 matrix.
func TestIm2ColF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Geom(2, 6, 6, 3, 3, 1, 1)
	x := New(2, 6, 6)
	x.FillNormal(rng, 0, 1)
	want := Im2Col(x, g).F32()
	got := Im2Col(x.F32(), g)
	t32EqualBitwise(t, "Im2Col/f32", got, want)

	xb := New(3, 2, 6, 6)
	xb.FillNormal(rng, 0, 1)
	wantB := Im2ColBatch(xb, g).F32()
	gotB := Im2ColBatch(xb.F32(), g)
	t32EqualBitwise(t, "Im2ColBatch/f32", gotB, wantB)
}

// TestConvertRoundTrip: float32→float64 is exact, so a value that
// started as float32 survives a round trip bitwise; ConvertInto matches
// the allocating forms.
func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(4, 5)
	a.FillNormal(rng, 0, 1)

	a32 := a.F32()
	if rt := a32.F64().F32(); true {
		t32EqualBitwise(t, "roundtrip", rt, a32)
	}

	dst32 := New32(4, 5)
	ConvertInto(dst32, a)
	t32EqualBitwise(t, "ConvertInto", dst32, a32)

	dst64 := New(4, 5)
	ConvertInto(dst64, a32)
	want64 := a32.F64()
	for i := range want64.Data() {
		if dst64.Data()[i] != want64.Data()[i] {
			t.Fatalf("ConvertInto f64: element %d = %v, want %v", i, dst64.Data()[i], want64.Data()[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ConvertInto with mismatched sizes did not panic")
		}
	}()
	ConvertInto(New32(2, 2), a)
}
