package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (effectively) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Matrix // packed L (unit lower) and U
	piv   []int   // row permutation
	signP float64 // determinant sign of the permutation
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero.
func FactorLU(a *Matrix) (*LU, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("mat: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		mx := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= m * lu.data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, signP: sign}, nil
}

// SolveVec solves A*x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU solve length mismatch %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[i*n+j] * x[j]
		}
		d := f.lu.data[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// Solve solves A*X = B for a matrix right-hand side.
func (f *LU) Solve(b *Matrix) (*Matrix, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, fmt.Errorf("mat: LU solve shape mismatch %dx%d vs n=%d", b.rows, b.cols, n)
	}
	x := New(n, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		x.SetCol(j, col)
	}
	return x, nil
}

// Solve solves the square linear system a*x = b.
func Solve(a, b *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns a⁻¹, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}
