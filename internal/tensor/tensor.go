// Package tensor provides the float32 vector and row-matrix kernels that the
// KGE models and gradient pipeline are built on.
//
// The paper's workloads operate on embedding matrices whose rows are small
// (dimension up to a few hundred) dense vectors; all heavy math reduces to
// BLAS-1 style kernels over rows. Everything here is allocation-free unless
// documented otherwise, so hot loops in training stay off the garbage
// collector.
//
// Ownership and concurrency: the free-function kernels (Dot, Axpy, ...)
// only read their inputs and write their named outputs; they never retain a
// slice past the call. None of them are synchronized: they are for
// exclusively-owned rows and scratch, or for rows every goroutine only
// reads.
package tensor

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; it panics otherwise (mirroring the cost of a silent mismatch).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Dot3 returns sum_i a[i]*b[i]*c[i], the triple product at the heart of the
// ComplEx and DistMult scoring functions.
func Dot3(a, b, c []float32) float32 {
	if len(a) != len(b) || len(b) != len(c) {
		panic("tensor: Dot3 length mismatch")
	}
	var s float32
	for i, av := range a {
		s += av * b[i] * c[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// AxpyMul computes y[i] += alpha * a[i] * b[i], fusing the element-wise
// product used by KGE gradient rules.
func AxpyMul(alpha float32, a, b, y []float32) {
	if len(a) != len(b) || len(b) != len(y) {
		panic("tensor: AxpyMul length mismatch")
	}
	for i := range y {
		y[i] += alpha * a[i] * b[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y += x in place.
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Add length mismatch")
	}
	for i, xv := range x {
		y[i] += xv
	}
}

// Copy copies src into dst; lengths must match.
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
}

// Zero sets x to all zeros.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Nrm2Sq returns the squared Euclidean norm of x.
func Nrm2Sq(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(s)
}

// AbsMax returns max_i |x[i]|, or 0 for an empty slice.
func AbsMax(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// AbsMean returns mean_i |x[i]|, or 0 for an empty slice.
func AbsMean(x []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += math.Abs(float64(v))
	}
	return float32(s / float64(len(x)))
}

// IsZero reports whether every element of x is exactly zero.
func IsZero(x []float32) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Matrix is a dense row-major matrix of float32 whose rows are embedding
// vectors. Data is a single backing slice of Rows*Cols elements, so a whole
// matrix can be communicated or checkpointed as one contiguous buffer.
//
// A Matrix has no internal synchronization. Read-only sharing of a frozen
// matrix (the serving store) is safe as-is; a matrix that is written must
// be owned by one goroutine at a time.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a mutable slice view into the backing array — no
// copy is made, so writes through the view are writes to the matrix, and
// the view stays valid (and aliased) for the life of the Matrix.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic("tensor: Matrix row out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ZeroAll clears the whole matrix.
func (m *Matrix) ZeroAll() { Zero(m.Data) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// RandomizeNormal fills m with N(0, sigma^2) entries drawn from next, a
// function returning standard normal variates. Used for Glorot-style
// embedding initialization.
func (m *Matrix) RandomizeNormal(sigma float32, next func() float64) {
	for i := range m.Data {
		m.Data[i] = sigma * float32(next())
	}
}

// Bytes returns the size of the matrix payload in bytes (4 bytes/value).
func (m *Matrix) Bytes() int { return 4 * len(m.Data) }

// NonZeroRows returns the number of rows with at least one non-zero entry.
// Figure 2 of the paper tracks this quantity across training epochs.
func (m *Matrix) NonZeroRows() int {
	n := 0
	for i := 0; i < m.Rows; i++ {
		if !IsZero(m.Row(i)) {
			n++
		}
	}
	return n
}
