package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor: %v size=%d", x.Shape(), x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetAt(t *testing.T) {
	x := New(2, 3, 4)
	x.SetAt(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// row-major order: offset of [1,2,3] in [2,3,4] is 1*12+2*4+3 = 23
	if x.Data()[23] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	x.At(0, 2)
}

func TestAtWrongRankPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-rank At did not panic")
		}
	}()
	x.At(1)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.SetAt(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape should share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 42
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	sum := Add(a, b)
	for i, want := range []float64{5, 7, 9} {
		if sum.Data()[i] != want {
			t.Fatalf("Add[%d] = %v, want %v", i, sum.Data()[i], want)
		}
	}
	diff := Sub(b, a)
	for i, want := range []float64{3, 3, 3} {
		if diff.Data()[i] != want {
			t.Fatalf("Sub[%d] = %v, want %v", i, diff.Data()[i], want)
		}
	}
	c := a.Clone()
	c.MulInPlace(b)
	for i, want := range []float64{4, 10, 18} {
		if c.Data()[i] != want {
			t.Fatalf("Mul[%d] = %v, want %v", i, c.Data()[i], want)
		}
	}
	d := a.Clone()
	d.Scale(2)
	d.AddScaled(-1, a)
	for i := range a.Data() {
		if d.Data()[i] != a.Data()[i] {
			t.Fatalf("2a - a != a at %d", i)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2), New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	a.AddInPlace(b)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -7, 2, 5}, 4)
	if x.Sum() != 3 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.Max() != 5 {
		t.Errorf("Max = %v", x.Max())
	}
	if x.Argmax() != 3 {
		t.Errorf("Argmax = %v", x.Argmax())
	}
	if x.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
	want := math.Sqrt(9 + 49 + 4 + 25)
	if math.Abs(x.Norm2()-want) > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", x.Norm2(), want)
	}
}

func TestArgmaxFirstOfTies(t *testing.T) {
	x := FromSlice([]float64{1, 5, 5, 2}, 4)
	if x.Argmax() != 1 {
		t.Fatalf("Argmax of tie = %d, want 1 (first)", x.Argmax())
	}
}

func TestClamp(t *testing.T) {
	x := FromSlice([]float64{-2, 0.5, 3}, 3)
	x.Clamp(0, 1)
	for i, want := range []float64{0, 0.5, 1} {
		if x.Data()[i] != want {
			t.Fatalf("Clamp[%d] = %v, want %v", i, x.Data()[i], want)
		}
	}
}

func TestHasNaN(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	if x.HasNaN() {
		t.Fatal("finite tensor reported NaN")
	}
	x.Data()[1] = math.NaN()
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	x.Data()[1] = math.Inf(1)
	if !x.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestApplyMap(t *testing.T) {
	x := FromSlice([]float64{1, 4, 9}, 3)
	y := x.Map(math.Sqrt)
	for i, want := range []float64{1, 2, 3} {
		if y.Data()[i] != want {
			t.Fatalf("Map[%d] = %v", i, y.Data()[i])
		}
	}
	if x.Data()[1] != 4 {
		t.Fatal("Map mutated the source")
	}
	x.Apply(func(v float64) float64 { return -v })
	if x.Data()[2] != -9 {
		t.Fatal("Apply failed")
	}
}

func TestMatMulHandChecked(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulIntoAccumulate(t *testing.T) {
	a := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	c := New(2, 2)
	MatMulInto(c, a, b, false)
	MatMulInto(c, a, b, true)
	for i, w := range []float64{2, 4, 6, 8} {
		if c.Data()[i] != w {
			t.Fatalf("accumulated MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(4, 3), New(4, 5)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)
	got := MatMulTA(a, b)
	at := transpose(a)
	want := MatMul(at, b)
	assertClose(t, got, want, 1e-12)
}

func TestMatMulTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(4, 3), New(5, 3)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)
	got := MatMulTB(a, b)
	want := MatMul(a, transpose(b))
	assertClose(t, got, want, 1e-12)
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	at := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			at.SetAt(a.At(i, j), j, i)
		}
	}
	return at
}

func assertClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > tol {
			t.Fatalf("element %d: got %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestQuickMatMulLinearity(t *testing.T) {
	// (A+B)·C = A·C + B·C
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, c := New(m, k), New(m, k), New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		c.FillNormal(rng, 0, 1)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := New(n, n)
		a.FillNormal(rng, 0, 1)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.SetAt(1, i, i)
		}
		got := MatMul(a, id)
		for i := range got.Data() {
			if got.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFillDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(10000)
	x.FillUniform(rng, -1, 1)
	if x.Max() > 1 || -x.Map(func(v float64) float64 { return -v }).Max() < -1 {
		t.Fatal("FillUniform out of range")
	}
	mean := x.Sum() / float64(x.Size())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("uniform mean = %v, want ≈0", mean)
	}
	x.FillNormal(rng, 2, 0.5)
	mean = x.Sum() / float64(x.Size())
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈2", mean)
	}
}

func TestGlorotHeRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(5000)
	x.GlorotUniform(rng, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	if x.MaxAbs() > limit {
		t.Fatalf("Glorot exceeded limit: %v > %v", x.MaxAbs(), limit)
	}
	y := New(50000)
	y.HeNormal(rng, 128)
	var ss float64
	for _, v := range y.Data() {
		ss += v * v
	}
	std := math.Sqrt(ss / float64(y.Size()))
	want := math.Sqrt(2.0 / 128.0)
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("He std = %v, want ≈%v", std, want)
	}
}

func TestStackIntoMatchesStack(t *testing.T) {
	xs := []*Tensor{
		FromSlice([]float64{1, 2, 3, 4}, 2, 2),
		FromSlice([]float64{5, 6, 7, 8}, 2, 2),
	}
	want := Stack(xs)
	if got := want.Shape(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("Stack shape %v, want [2 2 2]", got)
	}
	dst := New(2, 2, 2)
	dst.Fill(math.NaN()) // stale contents must all be overwritten
	StackInto(dst, xs)
	for i, v := range want.Data() {
		if dst.Data()[i] != v {
			t.Fatalf("StackInto element %d = %v, want %v", i, dst.Data()[i], v)
		}
	}
	for name, bad := range map[string]*Tensor{"batch": New(3, 2, 2), "sample": New(2, 4), "rank": New(2, 2, 2, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StackInto accepted a %s-mismatched destination", name)
				}
			}()
			StackInto(bad, xs)
		}()
	}
}
