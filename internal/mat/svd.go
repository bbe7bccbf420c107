package mat

import (
	"errors"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * Vᵀ,
// where A is m x n, U is m x k, V is n x k, and k = min(m, n). Singular
// values are sorted in decreasing order.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

const (
	svdMaxSweeps = 60
	svdTol       = 1e-14
)

// FactorSVD computes the thin SVD of a using the one-sided Jacobi method,
// which is simple and numerically very accurate for the moderate sizes
// this package targets.
func FactorSVD(a *Matrix) (*SVD, error) {
	m, n := a.rows, a.cols
	if m == 0 || n == 0 {
		return nil, errors.New("mat: SVD of empty matrix")
	}
	if m < n {
		// Factor the transpose and swap the roles of U and V.
		s, err := FactorSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: s.V, S: s.S, V: s.U}, nil
	}
	// Work on a copy; columns of w converge to U*diag(S).
	w := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if gamma == 0 {
					continue
				}
				if math.Abs(gamma) <= svdTol*math.Sqrt(alpha*beta) {
					continue
				}
				off += math.Abs(gamma)
				// Jacobi rotation that zeros the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta > 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - s*wq
					w.data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Extract singular values as column norms and normalize U.
	s := make([]float64, n)
	u := New(m, n)
	for j := 0; j < n; j++ {
		var nrm float64
		for i := 0; i < m; i++ {
			nrm += w.data[i*n+j] * w.data[i*n+j]
		}
		nrm = math.Sqrt(nrm)
		s[j] = nrm
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.data[i*n+j] = w.data[i*n+j] / nrm
			}
		}
	}
	// Sort by decreasing singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	us := New(m, n)
	vs := New(n, n)
	ss := make([]float64, n)
	for newJ, oldJ := range idx {
		ss[newJ] = s[oldJ]
		us.SetCol(newJ, u.Col(oldJ))
		vs.SetCol(newJ, v.Col(oldJ))
	}
	return &SVD{U: us, S: ss, V: vs}, nil
}

// PInv returns the Moore-Penrose pseudo-inverse of a computed via the SVD.
func PInv(a *Matrix) (*Matrix, error) {
	s, err := FactorSVD(a)
	if err != nil {
		return nil, err
	}
	tol := 0.0
	if len(s.S) > 0 {
		mx := a.rows
		if a.cols > mx {
			mx = a.cols
		}
		tol = float64(mx) * 2.22e-16 * s.S[0]
	}
	k := len(s.S)
	// pinv = V * diag(1/s) * Uᵀ.
	vsi := New(s.V.rows, k)
	for j := 0; j < k; j++ {
		if s.S[j] <= tol {
			continue
		}
		inv := 1 / s.S[j]
		for i := 0; i < s.V.rows; i++ {
			vsi.data[i*k+j] = s.V.data[i*s.V.cols+j] * inv
		}
	}
	return Mul(vsi, s.U.T()), nil
}
