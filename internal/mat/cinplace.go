package mat

import (
	"fmt"
	"math/cmplx"
)

// Destination-passing variants of the complex kernels, mirroring
// inplace.go. They exist for the frequency-response sweep (H∞ norm
// estimation evaluates G(z) at hundreds of grid points per design), and
// obey the same contract as the real kernels: identical arithmetic to
// the allocating forms — bit-for-bit — with the result written into a
// caller-owned destination.
//
// Aliasing: CScaleInto/CSubInto/CAddInto tolerate dst aliasing an
// operand exactly (pure elementwise loops); CMulInto and CSolveInto
// require all buffers distinct. Violations are the caller's bug; these
// kernels sit behind lti's evaluator workspace rather than general
// call sites, so they validate shapes only.

func cintoShape(op string, dst *CMatrix, r, c int) {
	if dst.rows != r || dst.cols != c {
		panic("mat: " + op + ": destination shape mismatch")
	}
}

// CScaleInto writes s*a into dst and returns dst.
func CScaleInto(dst *CMatrix, s complex128, a *CMatrix) *CMatrix {
	cintoShape("CScaleInto", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = s * v
	}
	return dst
}

// CSubInto writes a - b into dst and returns dst.
func CSubInto(dst *CMatrix, a, b *CMatrix) *CMatrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: CSubInto: operand shape mismatch")
	}
	cintoShape("CSubInto", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
	return dst
}

// CAddInto writes a + b into dst and returns dst.
func CAddInto(dst *CMatrix, a, b *CMatrix) *CMatrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: CAddInto: operand shape mismatch")
	}
	cintoShape("CAddInto", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v + b.data[i]
	}
	return dst
}

// CMulInto writes a*b into dst (fully overwriting it) and returns dst.
// dst must not share storage with a or b.
func CMulInto(dst *CMatrix, a, b *CMatrix) *CMatrix {
	if a.cols != b.rows {
		panic("mat: CMulInto: dimension mismatch")
	}
	cintoShape("CMulInto", dst, a.rows, b.cols)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.cols+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				dst.data[i*dst.cols+j] += av * b.data[k*b.cols+j]
			}
		}
	}
	return dst
}

// CSolveInto solves the square complex system a*x = b by LU with
// partial pivoting, factoring into the caller-provided lu scratch (same
// shape as a) and writing the solution into x (same shape as b). a and
// b are left untouched; x, lu, a, b must all be distinct.
func CSolveInto(x, lu *CMatrix, a, b *CMatrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: CSolve of non-square %dx%d matrix", a.rows, a.cols)
	}
	if b.rows != a.rows {
		return fmt.Errorf("mat: CSolve shape mismatch %dx%d vs n=%d", b.rows, b.cols, a.rows)
	}
	cintoShape("CSolveInto", lu, a.rows, a.cols)
	cintoShape("CSolveInto", x, b.rows, b.cols)
	copy(lu.data, a.data)
	copy(x.data, b.data)
	return cSolveInPlace(lu, x)
}

// cSolveInPlace runs LU elimination with partial pivoting, destroying
// lu and overwriting x with the solution.
func cSolveInPlace(lu, x *CMatrix) error {
	n := lu.rows
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.data[i*n+k]); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			for j := 0; j < x.cols; j++ {
				x.data[p*x.cols+j], x.data[k*x.cols+j] = x.data[k*x.cols+j], x.data[p*x.cols+j]
			}
		}
		piv := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / piv
			if m == 0 {
				continue
			}
			lu.data[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= m * lu.data[k*n+j]
			}
			for j := 0; j < x.cols; j++ {
				x.data[i*x.cols+j] -= m * x.data[k*x.cols+j]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := 0; j < x.cols; j++ {
			s := x.data[i*x.cols+j]
			for k := i + 1; k < n; k++ {
				s -= lu.data[i*n+k] * x.data[k*x.cols+j]
			}
			x.data[i*x.cols+j] = s / lu.data[i*n+i]
		}
	}
	return nil
}
