package mat

import "math"

// The oracles the external tests (package mat_test) check the linked
// operations against: the trace and determinant the eigenvalue
// invariants need, the Frobenius and spectral norms, and element access
// to a complex matrix.

// Trace returns the sum of diagonal entries. It panics if m is not square.
func (m *Matrix) Trace() float64 {
	if !m.IsSquare() {
		panic("mat: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// NormFro returns the Frobenius norm.
func (m *Matrix) NormFro() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Det returns the determinant of a square matrix (0 if singular).
func Det(a *Matrix) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return 0
	}
	return f.Det()
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := f.signP
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
	}
	return d
}

// Norm2 returns the spectral norm (largest singular value) of a.
func Norm2(a *Matrix) float64 {
	s, err := FactorSVD(a)
	if err != nil {
		return 0
	}
	if len(s.S) == 0 {
		return 0
	}
	return s.S[0]
}

// At returns the element at row i, column j.
func (m *CMatrix) At(i, j int) complex128 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *CMatrix) Set(i, j int, v complex128) { m.data[i*m.cols+j] = v }
