package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense, row-major matrix of complex128 values. It supports
// the small amount of complex arithmetic needed for frequency-response
// computation: construction, the in-place kernels and their LU solve
// (cinplace.go), and the spectral norm.
type CMatrix struct {
	rows, cols int
	data       []complex128
}

// CNew returns a zero-initialized r x c complex matrix.
func CNew(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &CMatrix{rows: r, cols: c, data: make([]complex128, r*c)}
}

// CFromReal returns a complex copy of a real matrix.
func CFromReal(a *Matrix) *CMatrix {
	c := CNew(a.rows, a.cols)
	for i, v := range a.data {
		c.data[i] = complex(v, 0)
	}
	return c
}

// CIdentity returns the n x n complex identity.
func CIdentity(n int) *CMatrix {
	m := CNew(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// CNorm2 returns the spectral norm (largest singular value) of a complex
// matrix, computed as sqrt(λ_max(AᴴA)) via power iteration.
func CNorm2(a *CMatrix) float64 {
	// Power iteration on AᴴA.
	n := a.cols
	if n == 0 || a.rows == 0 {
		return 0
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(1/float64(n)+float64(i%3)*0.01, 0)
	}
	var lam float64
	// w, z are reused across iterations: w is fully overwritten, z is
	// re-zeroed before accumulation, so results match the naive form.
	w := make([]complex128, a.rows)
	z := make([]complex128, n)
	for iter := 0; iter < 200; iter++ {
		// w = A*v.
		for i := 0; i < a.rows; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a.data[i*n+j] * v[j]
			}
			w[i] = s
		}
		// z = Aᴴ*w.
		for i := range z {
			z[i] = 0
		}
		for i := 0; i < a.rows; i++ {
			wi := w[i]
			for j := 0; j < n; j++ {
				z[j] += cmplx.Conj(a.data[i*n+j]) * wi
			}
		}
		var nrm float64
		for _, zv := range z {
			nrm += real(zv)*real(zv) + imag(zv)*imag(zv)
		}
		nrm = math.Sqrt(nrm)
		if nrm == 0 {
			return 0
		}
		newLam := math.Sqrt(nrm)
		for i := range z {
			v[i] = z[i] / complex(nrm, 0)
		}
		if iter > 3 && math.Abs(newLam-lam) <= 1e-12*newLam {
			lam = newLam
			break
		}
		lam = newLam
	}
	return lam
}
