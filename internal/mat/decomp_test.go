package mat_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

func TestLUSolve(t *testing.T) {
	a := testkit.FromRows([][]float64{{4, 3}, {6, 3}})
	b := []float64{10, 12}
	f, err := mat.FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual.
	r := testkit.VecSub(testkit.MulVec(a, x), b)
	if mat.VecNorm2(r) > 1e-12 {
		t.Fatalf("residual %v too large, x=%v", r, x)
	}
}

func TestLUDet(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {3, 4}})
	if d := mat.Det(a); math.Abs(d-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", d)
	}
	if d := mat.Det(mat.Identity(5)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Det(I) = %v, want 1", d)
	}
}

func TestLUSingular(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := mat.FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular for rank-1 matrix")
	}
	if d := mat.Det(a); d != 0 {
		t.Fatalf("Det of singular = %v, want 0", d)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := randMatrix(rng, n, n)
		// Diagonal boost to ensure well-conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := mat.Inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !testkit.ApproxEqual(mat.Mul(a, inv), mat.Identity(n), 1e-9) {
			t.Fatalf("trial %d: A*A⁻¹ != I", trial)
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined fit: y = 2 + 3x with exact data must recover exactly.
	xs := []float64{0, 1, 2, 3, 4}
	a := mat.New(len(xs), 2)
	b := mat.New(len(xs), 1)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b.Set(i, 0, 2+3*x)
	}
	sol, err := mat.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.At(0, 0)-2) > 1e-10 || math.Abs(sol.At(1, 0)-3) > 1e-10 {
		t.Fatalf("LeastSquares = %v, want [2;3]", sol)
	}
}

func TestQRMatchesLUOnSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := randMatrix(rng, n, 2)
		xlu, err := mat.Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		f, err := mat.FactorQR(a)
		if err != nil {
			t.Fatal(err)
		}
		xqr, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !testkit.ApproxEqual(xlu, xqr, 1e-8) {
			t.Fatalf("trial %d: LU and QR solutions disagree", trial)
		}
	}
}

func TestQRRankDeficientFallsBackToPInv(t *testing.T) {
	// Columns are linearly dependent; mat.LeastSquares must still return the
	// minimum-norm solution without error.
	a := testkit.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	b := testkit.FromRows([][]float64{{5}, {10}, {15}})
	x, err := mat.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := mat.Sub(mat.Mul(a, x), b)
	if res.NormFro() > 1e-9 {
		t.Fatalf("residual %v too large", res.NormFro())
	}
}

func TestCholesky(t *testing.T) {
	// A = Lᵀ*L with a known SPD matrix.
	a := testkit.FromRows([][]float64{{4, 2}, {2, 3}})
	c, err := testkit.FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	if !testkit.ApproxEqual(mat.Mul(l, l.T()), a, 1e-12) {
		t.Fatalf("L*Lᵀ != A: %v", mat.Mul(l, l.T()))
	}
	x := c.SolveVec([]float64{10, 8})
	r := testkit.VecSub(testkit.MulVec(a, x), []float64{10, 8})
	if mat.VecNorm2(r) > 1e-10 {
		t.Fatalf("Cholesky solve residual %v", r)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := testkit.FactorCholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	if testkit.IsPositiveDefinite(a) {
		t.Fatal("IsPositiveDefinite returned true for indefinite matrix")
	}
	if !testkit.IsPositiveDefinite(mat.Identity(4)) {
		t.Fatal("identity should be positive definite")
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(6)
		n := 2 + rng.Intn(6)
		a := randMatrix(rng, m, n)
		s, err := mat.FactorSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct U*S*Vᵀ.
		k := len(s.S)
		us := s.U.Clone()
		for j := 0; j < k; j++ {
			for i := 0; i < us.Rows(); i++ {
				us.Set(i, j, us.At(i, j)*s.S[j])
			}
		}
		recon := mat.Mul(us, s.V.T())
		if !testkit.ApproxEqual(recon, a, 1e-9) {
			t.Fatalf("trial %d (%dx%d): SVD reconstruction failed", trial, m, n)
		}
		// Singular values sorted descending and non-negative.
		for j := 1; j < k; j++ {
			if s.S[j] > s.S[j-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", s.S)
			}
			if s.S[j] < 0 {
				t.Fatalf("negative singular value: %v", s.S)
			}
		}
		// U orthonormal columns.
		utu := mat.Mul(s.U.T(), s.U)
		if !testkit.ApproxEqual(utu, mat.Identity(k), 1e-9) {
			t.Fatalf("UᵀU != I: %v", utu)
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values {3, 2}.
	a := mat.Diag(3, 2)
	s, err := mat.FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.S[0]-3) > 1e-12 || math.Abs(s.S[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v, want [3 2]", s.S)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	a := testkit.FromRows([][]float64{{1, 2}, {2, 4}}) // rank 1
	s, err := mat.FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	// One singular value above the rank tolerance max(m,n)·eps·σ_max.
	if tol := 2 * 2.22e-16 * s.S[0]; s.S[0] <= tol || s.S[1] > tol {
		t.Fatalf("singular values %v, want rank 1", s.S)
	}
}

func TestPInvProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(5)
		n := 2 + rng.Intn(5)
		a := randMatrix(rng, m, n)
		p, err := mat.PInv(a)
		if err != nil {
			t.Fatal(err)
		}
		// Moore-Penrose conditions 1 and 2.
		if !testkit.ApproxEqual(mat.Mul(mat.Mul(a, p), a), a, 1e-8) {
			t.Fatalf("trial %d: A*A⁺*A != A", trial)
		}
		if !testkit.ApproxEqual(mat.Mul(mat.Mul(p, a), p), p, 1e-8) {
			t.Fatalf("trial %d: A⁺*A*A⁺ != A⁺", trial)
		}
	}
}

func TestNorm2MatchesSVD(t *testing.T) {
	a := testkit.FromRows([][]float64{{0, 2}, {0, 0}})
	if got := mat.Norm2(a); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 2", got)
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	w, err := mat.Eigenvalues(mat.Diag(3, -1, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(w[0]), real(w[1]), real(w[2])}
	sort.Float64s(got)
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("eigenvalues = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesComplexPair(t *testing.T) {
	// Rotation-like matrix [[0 -1],[1 0]] has eigenvalues ±i.
	a := testkit.FromRows([][]float64{{0, -1}, {1, 0}})
	w, err := mat.Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(w[0])-1) > 1e-10 && math.Abs(imag(w[0])+1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want ±i", w)
	}
	if math.Abs(real(w[0])) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want purely imaginary", w)
	}
}

func TestEigenvaluesKnown3x3(t *testing.T) {
	// Companion matrix of (λ-1)(λ-2)(λ-3) = λ³-6λ²+11λ-6.
	a := testkit.FromRows([][]float64{
		{6, -11, 6},
		{1, 0, 0},
		{0, 1, 0},
	})
	w, err := mat.Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{real(w[0]), real(w[1]), real(w[2])}
	sort.Float64s(got)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(got[i]-want) > 1e-8 {
			t.Fatalf("eigenvalues = %v, want [1 2 3]", got)
		}
	}
}

func TestEigTraceDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		a := randMatrix(rng, n, n)
		w, err := mat.Eigenvalues(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum complex128 = 0
		var prod complex128 = 1
		for _, v := range w {
			sum += v
			prod *= v
		}
		if math.Abs(imag(sum)) > 1e-8 {
			t.Fatalf("trial %d: eigenvalue sum has imaginary part %v", trial, sum)
		}
		if math.Abs(real(sum)-a.Trace()) > 1e-7*(1+math.Abs(a.Trace())) {
			t.Fatalf("trial %d: Σλ=%v, trace=%v", trial, real(sum), a.Trace())
		}
		det := mat.Det(a)
		if math.Abs(real(prod)-det) > 1e-6*(1+math.Abs(det)) {
			t.Fatalf("trial %d: Πλ=%v, det=%v", trial, real(prod), det)
		}
	}
}

func TestSpectralRadius(t *testing.T) {
	a := mat.Diag(0.5, -0.9, 0.2)
	r, err := mat.SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.9) > 1e-10 {
		t.Fatalf("SpectralRadius = %v, want 0.9", r)
	}
}

func TestCSolve(t *testing.T) {
	a := mat.CNew(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, complex(0, 2))
	a.Set(1, 0, complex(3, 0))
	a.Set(1, 1, complex(1, -1))
	b := mat.CNew(2, 1)
	b.Set(0, 0, complex(5, 1))
	b.Set(1, 0, complex(2, 3))
	x := mat.CNew(2, 1)
	if err := mat.CSolveInto(x, mat.CNew(2, 2), a, b); err != nil {
		t.Fatal(err)
	}
	r := mat.CSubInto(mat.CNew(2, 1), mat.CMulInto(mat.CNew(2, 1), a, x), b)
	for i := 0; i < 2; i++ {
		v := r.At(i, 0)
		if math.Hypot(real(v), imag(v)) > 1e-12 {
			t.Fatalf("CSolveInto residual %v", v)
		}
	}
}

func TestCSolveSingular(t *testing.T) {
	a := mat.CNew(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if err := mat.CSolveInto(mat.CNew(2, 2), mat.CNew(2, 2), a, mat.CIdentity(2)); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCNorm2MatchesRealNorm2(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(4)
		n := 2 + rng.Intn(4)
		a := randMatrix(rng, m, n)
		want := mat.Norm2(a)
		got := mat.CNorm2(mat.CFromReal(a))
		if math.Abs(got-want) > 1e-8*(1+want) {
			t.Fatalf("trial %d: CNorm2 = %v, real Norm2 = %v", trial, got, want)
		}
	}
}

// Property-based tests with testing/quick.

// TestQuickDotSymmetry: a one-row product x·y, as MulVecInto computes
// it, is symmetric in its operands bit for bit.
func TestQuickDotSymmetry(t *testing.T) {
	dot := func(x, y []float64) float64 {
		return mat.MulVecInto(make([]float64, 1), fromSlice(1, len(x), x), y)[0]
	}
	f := func(xs [4]float64, ys [4]float64) bool {
		x, y := xs[:], ys[:]
		a, b := dot(x, y), dot(y, x)
		if math.IsNaN(a) && math.IsNaN(b) {
			return true // both overflowed the same way
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleLinearity(t *testing.T) {
	f := func(vals [6]float64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		m := fromSlice(2, 3, vals[:])
		lhs := mat.Scale(s, mat.Add(m, m))
		rhs := mat.Add(mat.Scale(s, m), mat.Scale(s, m))
		return testkit.ApproxEqual(lhs, rhs, 1e-9*(1+math.Abs(s)*m.MaxAbs()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(vals [12]float64) bool {
		m := fromSlice(3, 4, vals[:])
		return testkit.Equal(m.T().T(), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fromSlice wraps a copy of a flat row-major slice as an r x c matrix.
func fromSlice(r, c int, data []float64) *mat.Matrix {
	m := mat.New(r, c)
	copy(m.RawData(), data)
	return m
}
