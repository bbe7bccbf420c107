// Package testkit holds the test helpers that the tests of several
// packages share: matrix literals and comparisons, the allocating
// vector operations, the positive-definiteness and observability
// checks that design tests assert, a field-by-field comparison of
// per-epoch records, and the supervised-loop fault schedules that the
// batch and supervisor differentials decode. Only _test.go files import
// it, so no program links it.
package testkit

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"mimoctl/internal/mat"
	"mimoctl/internal/obs"
)

// FromRows builds a matrix from a slice of equally long rows. The data
// is copied.
func FromRows(rows [][]float64) *mat.Matrix {
	r := len(rows)
	if r == 0 {
		return mat.New(0, 0)
	}
	c := len(rows[0])
	m := mat.New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("testkit: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.RowView(i), row)
	}
	return m
}

// Equal reports exact element-wise equality of shape and values.
func Equal(a, b *mat.Matrix) bool {
	return ApproxEqual(a, b, 0)
}

// ApproxEqual reports whether a and b have the same shape and all
// entries within tol of each other.
func ApproxEqual(a, b *mat.Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	bd := b.RawData()
	for i, v := range a.RawData() {
		if math.Abs(v-bd[i]) > tol {
			return false
		}
	}
	return true
}

// MulVec returns the matrix-vector product a*x as a new slice of length
// a.Rows().
func MulVec(a *mat.Matrix, x []float64) []float64 {
	if a.Cols() != len(x) {
		panic(fmt.Sprintf("testkit: MulVec dimension mismatch %dx%d * len %d", a.Rows(), a.Cols(), len(x)))
	}
	y := make([]float64, a.Rows())
	for i := range y {
		var s float64
		for j, v := range a.RowView(i) {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecSub returns x - y as a new slice.
func VecSub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("testkit: VecSub length mismatch %d vs %d", len(x), len(y)))
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// VecAdd returns x + y as a new slice.
func VecAdd(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("testkit: VecAdd length mismatch %d vs %d", len(x), len(y)))
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] + y[i]
	}
	return z
}

// ErrNotPositiveDefinite is returned by FactorCholesky when the input
// is not symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("testkit: matrix is not positive definite")

// Cholesky holds the lower-triangular Cholesky factor L of a symmetric
// positive-definite matrix A = L*Lᵀ.
type Cholesky struct {
	l *mat.Matrix
}

// FactorCholesky computes the Cholesky factorization of a symmetric
// positive-definite matrix. Only the lower triangle of a is read.
func FactorCholesky(a *mat.Matrix) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, errors.New("testkit: Cholesky of non-square matrix")
	}
	n := a.Rows()
	l := mat.New(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			var s float64
			for i := 0; i < k; i++ {
				s += l.At(k, i) * l.At(j, i)
			}
			s = (a.At(j, k) - s) / l.At(k, k)
			l.Set(j, k, s)
			d += s * s
		}
		d = a.At(j, j) - d
		if d <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		l.Set(j, j, math.Sqrt(d))
	}
	return &Cholesky{l: l}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *mat.Matrix { return c.l.Clone() }

// SolveVec solves A*x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.l.Rows()
	x := make([]float64, n)
	copy(x, b)
	// Forward: L*y = b.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += c.l.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / c.l.At(i, i)
	}
	// Backward: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += c.l.At(j, i) * x[j]
		}
		x[i] = (x[i] - s) / c.l.At(i, i)
	}
	return x
}

// IsPositiveDefinite reports whether the symmetric part of a is positive
// definite.
func IsPositiveDefinite(a *mat.Matrix) bool {
	_, err := FactorCholesky(mat.Symmetrize(a))
	return err == nil
}

// Observable reports whether (a, c) is observable: the observability
// matrix [C; CA; …; CAⁿ⁻¹] has full column rank n, at the numerical
// tolerance max(rows, n)·eps·σ_max.
func Observable(a, c *mat.Matrix) bool {
	n := a.Rows()
	blocks := make([]*mat.Matrix, n)
	cur := c.Clone()
	for i := range blocks {
		blocks[i] = cur
		cur = mat.Mul(cur, a)
	}
	om := mat.VStack(blocks...)
	svd, err := mat.FactorSVD(om)
	if err != nil || len(svd.S) == 0 {
		return false
	}
	tol := float64(max(om.Rows(), n)) * 2.22e-16 * svd.S[0]
	rank := 0
	for _, s := range svd.S {
		if s > tol {
			rank++
		}
	}
	return rank == n
}

// Controllable reports whether (a, b) is controllable: by duality,
// whether (aᵀ, bᵀ) is observable.
func Controllable(a, b *mat.Matrix) bool {
	return Observable(a.T(), b.T())
}

// EventDiff names every field on which a and b differ, with both
// values. Floats compare by their bits, so NaN payloads count; the
// fields are found by reflection, so a field added to obs.Event is
// compared too.
func EventDiff(a, b obs.Event) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb, name := va.Field(i), vb.Field(i), va.Type().Field(i).Name
		if fa.Kind() == reflect.Float64 {
			if x, y := math.Float64bits(fa.Float()), math.Float64bits(fb.Float()); x != y {
				diff = append(diff, fmt.Sprintf("%s %v (%#x) vs %v (%#x)", name, fa.Float(), x, fb.Float(), y))
			}
		} else if fa.Interface() != fb.Interface() {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", name, fa.Interface(), fb.Interface()))
		}
	}
	return diff
}
