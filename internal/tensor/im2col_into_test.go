package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The reference loops below are the original per-element-bounds-checked
// lowering kernels. The hoisted-range kernels in im2col.go must match
// them bit for bit on every geometry, including padding and strides the
// paper's testbed never uses (it only has pad 0, stride 1).

func refIm2ColBatch(x *Tensor, g ConvGeom) *Tensor {
	batch := x.Dim(0)
	rows := g.C * g.KH * g.KW
	sampleCols := g.OutH * g.OutW
	cols := batch * sampleCols
	out := New(rows, cols)
	xd, od := x.Data(), out.Data()
	sampleSize := g.C * g.H * g.W
	for b := 0; b < batch; b++ {
		xs := xd[b*sampleSize : (b+1)*sampleSize]
		colBase := b * sampleCols
		for c := 0; c < g.C; c++ {
			for ki := 0; ki < g.KH; ki++ {
				for kj := 0; kj < g.KW; kj++ {
					row := (c*g.KH+ki)*g.KW + kj
					base := row*cols + colBase
					for oi := 0; oi < g.OutH; oi++ {
						ii := oi*g.Stride + ki - g.Pad
						if ii < 0 || ii >= g.H {
							continue
						}
						xrow := xs[(c*g.H+ii)*g.W:]
						orow := od[base+oi*g.OutW:]
						for oj := 0; oj < g.OutW; oj++ {
							jj := oj*g.Stride + kj - g.Pad
							if jj >= 0 && jj < g.W {
								orow[oj] = xrow[jj]
							}
						}
					}
				}
			}
		}
	}
	return out
}

func refCol2Im(col *Tensor, g ConvGeom) *Tensor {
	cols := g.OutH * g.OutW
	x := New(g.C, g.H, g.W)
	cd, xd := col.Data(), x.Data()
	for c := 0; c < g.C; c++ {
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				base := ((c*g.KH+ki)*g.KW + kj) * cols
				for oi := 0; oi < g.OutH; oi++ {
					ii := oi*g.Stride + ki - g.Pad
					if ii < 0 || ii >= g.H {
						continue
					}
					xrow := xd[(c*g.H+ii)*g.W:]
					crow := cd[base+oi*g.OutW:]
					for oj := 0; oj < g.OutW; oj++ {
						jj := oj*g.Stride + kj - g.Pad
						if jj >= 0 && jj < g.W {
							xrow[jj] += crow[oj]
						}
					}
				}
			}
		}
	}
	return x
}

// loweringGeoms covers stride 1 and >1, no padding and padding up to and
// beyond the kernel size (whole kernel rows then fall in the padding),
// non-square inputs and kernels larger than the stride.
func loweringGeoms() []ConvGeom {
	return []ConvGeom{
		Geom(3, 8, 8, 3, 3, 1, 0),
		Geom(2, 6, 7, 3, 3, 1, 1),
		Geom(2, 7, 5, 3, 3, 2, 1),
		Geom(1, 9, 9, 2, 2, 3, 0),
		Geom(2, 5, 6, 3, 2, 2, 2),
		Geom(1, 4, 4, 2, 2, 3, 3),
		Geom(3, 5, 5, 5, 5, 1, 2),
		Geom(1, 3, 3, 1, 1, 2, 0),
	}
}

// sameBits fails unless got and want hold identical bit patterns
// (distinguishing +0 from -0).
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// dirty returns a slice of n NaNs: a reused buffer whose stale contents
// would show if a kernel left any cell unwritten.
func dirty(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func TestIm2ColIntoMatchesReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range loweringGeoms() {
		for _, batch := range []int{1, 3} {
			x := New(batch, g.C, g.H, g.W)
			x.FillNormal(rng, 0, 1)
			want := refIm2ColBatch(x, g)

			got := dirty(want.Size())
			Im2ColBatchInto(got, x, g)
			sameBits(t, "Im2ColBatchInto", got, want.Data())
			sameBits(t, "Im2ColBatch", Im2ColBatch(x, g).Data(), want.Data())

			if batch == 1 {
				s := x.Sample(0)
				got := dirty(want.Size())
				Im2ColInto(got, s, g)
				sameBits(t, "Im2ColInto", got, want.Data())
				sameBits(t, "Im2Col", Im2Col(s, g).Data(), want.Data())
			}
		}
	}
}

func TestCol2ImIntoMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range loweringGeoms() {
		col := New(g.C*g.KH*g.KW, g.OutH*g.OutW)
		col.FillNormal(rng, 0, 1)
		// Negative zeros: a kernel that assigned instead of adding to a
		// zeroed target would keep their sign bit.
		col.Data()[0] = math.Copysign(0, -1)
		want := refCol2Im(col, g)

		got := dirty(g.C * g.H * g.W)
		Col2ImInto(got, col, g)
		sameBits(t, "Col2ImInto", got, want.Data())
		sameBits(t, "Col2Im", Col2Im(col, g).Data(), want.Data())
	}
}

func TestLoweringIntoRejectsWrongLength(t *testing.T) {
	g := Geom(1, 4, 4, 2, 2, 1, 0)
	x := New(2, 1, 4, 4)
	col := New(4, 9)
	for name, fn := range map[string]func(){
		"Im2ColInto":      func() { Im2ColInto(make([]float64, 35), x.Sample(0), g) },
		"Im2ColBatchInto": func() { Im2ColBatchInto(make([]float64, 36), x, g) },
		"Col2ImInto":      func() { Col2ImInto(make([]float64, 17), col, g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a destination of the wrong length", name)
				}
			}()
			fn()
		}()
	}
}
