// Package tensor implements the dense numeric arrays underlying the DNN
// engine: shape-checked tensors with the operations the network layers
// need (elementwise arithmetic, matrix multiplication, im2col for
// convolution lowering, reductions and random initialisation).
//
// Layout is row-major; images use NCHW (batch, channel, height, width).
// Storage and kernels are generic over the element type through the Num
// constraint (float32 | float64). The float64 instantiation T64 is the
// engine's reference precision — aliased as Tensor, it is what the
// numerical gradient checks in internal/nn verify the analytic backward
// passes against, and its kernels are bit-identical to the pre-generic
// float64 implementation. The float32 instantiation T32 halves memory
// traffic on the bandwidth-bound inference hot loops; it backs the
// reduced-precision serving path in internal/nn and internal/validate,
// whose replay comparisons run under an explicit tolerance instead of
// bit-exactness.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Num constrains the element types the tensor kernels support.
type Num interface {
	float32 | float64
}

// Dense is a dense row-major array of E with an explicit shape.
// The zero value is an empty tensor; use NewOf or FromSliceOf.
type Dense[E Num] struct {
	shape []int
	data  []E
}

// T64 is the float64 tensor, the engine's reference precision.
type T64 = Dense[float64]

// T32 is the float32 tensor of the reduced-precision inference path.
type T32 = Dense[float32]

// Tensor is the engine's default tensor type — the float64
// instantiation, so every pre-existing float64 API and guarantee is
// untouched by the generic storage underneath.
type Tensor = T64

// NewOf returns a zero-filled tensor of E with the given shape. A call
// with no dimensions returns a scalar tensor of one element.
func NewOf[E Num](shape ...int) *Dense[E] {
	// The constructors format their own copy of shape in panics, never
	// the argument, so a variadic call's shape array stays on the
	// caller's stack.
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", s))
		}
		n *= d
	}
	return &Dense[E]{shape: s, data: make([]E, n)}
}

// New returns a zero-filled float64 tensor with the given shape.
//
// New and FromSlice are kept out of line on purpose: inlined into
// another package they would call the generic instantiation directly,
// whose escape summary is not exported, so every call would move its
// variadic shape array to the heap.
//
//go:noinline
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// New32 returns a zero-filled float32 tensor with the given shape.
func New32(shape ...int) *T32 { return NewOf[float32](shape...) }

// FromSliceOf wraps data in a tensor of the given shape. The slice is
// used directly (not copied); it panics if the length does not match the
// shape.
func FromSliceOf[E Num](data []E, shape ...int) *Dense[E] {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), s, n))
	}
	return &Dense[E]{shape: s, data: data}
}

// FromSlice wraps float64 data in a tensor of the given shape. It is
// kept out of line for the reason New is.
//
//go:noinline
func FromSlice(data []float64, shape ...int) *Tensor { return FromSliceOf(data, shape...) }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Dense[E]) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Dense[E]) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Dense[E]) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Dense[E]) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Dense[E]) Data() []E { return t.data }

// At returns the element at the given multi-index.
func (t *Dense[E]) At(idx ...int) E { return t.data[t.offset(idx)] }

// SetAt stores v at the given multi-index.
func (t *Dense[E]) SetAt(v E, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Dense[E]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Dense[E]) Clone() *Dense[E] {
	c := NewOf[E](t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape of the same total size.
// The view shares the backing data.
func (t *Dense[E]) Reshape(shape ...int) *Dense[E] {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), s, n))
	}
	return &Dense[E]{shape: s, data: t.data}
}

// Sample returns a view of block b along the leading dimension: for a
// [B, d1, d2, ...] tensor it is the [d1, d2, ...] slice of sample b,
// sharing the backing data. Row-major layout makes every such block
// contiguous, so the view allocates only a header.
func (t *Dense[E]) Sample(b int) *Dense[E] {
	if len(t.shape) == 0 {
		panic("tensor: Sample of a scalar tensor")
	}
	n := t.shape[0]
	if b < 0 || b >= n {
		panic(fmt.Sprintf("tensor: sample %d out of range for shape %v", b, t.shape))
	}
	sz := 1
	for _, d := range t.shape[1:] {
		sz *= d
	}
	s := make([]int, len(t.shape)-1)
	copy(s, t.shape[1:])
	return &Dense[E]{shape: s, data: t.data[b*sz : (b+1)*sz : (b+1)*sz]}
}

// Stack copies the given same-shaped tensors into one new batch tensor
// with a leading dimension of len(xs); the entry point of every batched
// forward pass. It panics on an empty list or a shape mismatch.
func Stack[E Num](xs []*Dense[E]) *Dense[E] {
	if len(xs) == 0 {
		panic("tensor: Stack of no tensors")
	}
	out := NewOf[E](append([]int{len(xs)}, xs[0].shape...)...)
	StackInto(out, xs)
	return out
}

// StackInto is Stack writing into dst, whose shape must be
// [len(xs), shape of xs[0]...]; every element of dst is overwritten.
func StackInto[E Num](dst *Dense[E], xs []*Dense[E]) {
	if len(xs) == 0 {
		panic("tensor: Stack of no tensors")
	}
	if dst.Rank() != xs[0].Rank()+1 || dst.shape[0] != len(xs) || !slices.Equal(dst.shape[1:], xs[0].shape) {
		panic(fmt.Sprintf("tensor: StackInto dst shape %v does not fit %d tensors of shape %v", dst.shape, len(xs), xs[0].shape))
	}
	sz := xs[0].Size()
	for b, x := range xs {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %v vs %v", x.shape, xs[0].shape))
		}
		copy(dst.data[b*sz:(b+1)*sz], x.data)
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Dense[E]) SameShape(u *Dense[E]) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

func (t *Dense[E]) mustSameShape(u *Dense[E], op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// Fill sets every element to v.
func (t *Dense[E]) Fill(v E) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Dense[E]) Zero() { clear(t.data) }

// AddInPlace sets t += u elementwise.
func (t *Dense[E]) AddInPlace(u *Dense[E]) {
	t.mustSameShape(u, "add")
	for i, v := range u.data {
		t.data[i] += v
	}
}

// SubInPlace sets t -= u elementwise.
func (t *Dense[E]) SubInPlace(u *Dense[E]) {
	t.mustSameShape(u, "sub")
	for i, v := range u.data {
		t.data[i] -= v
	}
}

// MulInPlace sets t *= u elementwise (Hadamard product).
func (t *Dense[E]) MulInPlace(u *Dense[E]) {
	t.mustSameShape(u, "mul")
	for i, v := range u.data {
		t.data[i] *= v
	}
}

// Scale multiplies every element by a.
func (t *Dense[E]) Scale(a E) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// AddScaled sets t += a*u elementwise; the axpy of SGD updates.
func (t *Dense[E]) AddScaled(a E, u *Dense[E]) {
	t.mustSameShape(u, "addScaled")
	for i, v := range u.data {
		t.data[i] += a * v
	}
}

// Add returns t + u as a new tensor.
func Add[E Num](t, u *Dense[E]) *Dense[E] {
	c := t.Clone()
	c.AddInPlace(u)
	return c
}

// Sub returns t - u as a new tensor.
func Sub[E Num](t, u *Dense[E]) *Dense[E] {
	c := t.Clone()
	c.SubInPlace(u)
	return c
}

// Apply replaces every element x with fn(x).
func (t *Dense[E]) Apply(fn func(E) E) {
	for i, v := range t.data {
		t.data[i] = fn(v)
	}
}

// Map returns a new tensor whose elements are fn applied to t's.
func (t *Dense[E]) Map(fn func(E) E) *Dense[E] {
	c := t.Clone()
	c.Apply(fn)
	return c
}

// Sum returns the sum of all elements.
func (t *Dense[E]) Sum() E {
	var s E
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Dense[E]) Max() E {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Dense[E]) Argmax() int {
	if len(t.data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened tensor, accumulated
// in float64 at any element type.
func (t *Dense[E]) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value (L∞ norm), 0 if empty.
func (t *Dense[E]) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// Clamp limits every element to [lo, hi].
func (t *Dense[E]) Clamp(lo, hi E) {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Dense[E]) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer with a compact summary.
func (t *Dense[E]) String() string {
	return fmt.Sprintf("tensor%v", t.shape)
}
