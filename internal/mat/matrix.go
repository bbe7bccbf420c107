// Package mat implements dense real and complex linear algebra on small to
// medium matrices: construction and arithmetic, LU/QR/Cholesky
// factorizations, a one-sided Jacobi SVD, eigenvalues via Hessenberg
// reduction and the Francis double-shift QR algorithm, and complex linear
// solves for frequency-response computation.
//
// The package is self-contained (stdlib only) and tuned for the matrix
// sizes that arise in control design (dimensions up to a few hundred). All
// matrices are dense, row-major, and backed by []float64.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Methods that return a new matrix
// never alias the receiver's backing storage.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized r x c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d ...float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.bounds(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.bounds(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) bounds(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// RowView returns row i as a slice aliasing the matrix storage: writes
// through the slice mutate the matrix. The cap is deliberately left
// un-truncated (it reaches the end of the backing array) so the
// in-place kernels' overlap detection can see that two views share a
// matrix; consequently the returned slice must never be appended to.
// Use Row for an independent copy.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j as a slice.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range for %dx%d", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol got %d values, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Slice returns a copy of the submatrix with rows [r0,r1) and columns
// [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d,%d:%d] out of range for %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.data[(i-r0)*s.cols:(i-r0+1)*s.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return s
}

// SetSubmatrix copies sub into m with its top-left corner at (r0, c0).
func (m *Matrix) SetSubmatrix(r0, c0 int, sub *Matrix) {
	if r0 < 0 || c0 < 0 || r0+sub.rows > m.rows || c0+sub.cols > m.cols {
		panic(fmt.Sprintf("mat: submatrix %dx%d at (%d,%d) out of range for %dx%d",
			sub.rows, sub.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < sub.rows; i++ {
		copy(m.data[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+sub.cols], sub.data[i*sub.cols:(i+1)*sub.cols])
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.data[i*m.cols+j])
		}
	}
	b.WriteByte(']')
	return b.String()
}

// IsSquare reports whether m has as many rows as columns.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// IsFinite reports whether every entry is finite (no NaN or Inf).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RawData returns the underlying row-major backing slice. Mutating it
// mutates the matrix; callers that need isolation should Clone first.
func (m *Matrix) RawData() []float64 { return m.data }
