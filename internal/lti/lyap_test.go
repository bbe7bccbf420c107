package lti

import (
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

func randStable(rng *rand.Rand, n int) *mat.Matrix {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	// Scale to spectral radius ~0.8.
	r, err := mat.SpectralRadius(a)
	if err != nil || r == 0 {
		return mat.Scale(0.5, mat.Identity(n))
	}
	return mat.Scale(0.8/r, a)
}

func TestDAREScalar(t *testing.T) {
	// Scalar DARE with a=1, b=1, q=1, r=1:
	// p = p - p²/(1+p) + 1 → p² - p - 1 = 0 → p = golden ratio.
	p, err := SolveDARE(mat.Diag(1), mat.Diag(1), mat.Diag(1), mat.Diag(1))
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + math.Sqrt(5)) / 2
	if math.Abs(p.At(0, 0)-want) > 1e-9 {
		t.Fatalf("p = %v, want %v", p.At(0, 0), want)
	}
}

func TestDAREResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(2)
		a := randStable(rng, n)
		b := mat.New(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		q := mat.Identity(n)
		r := mat.Identity(m)
		p, err := SolveDARE(a, b, q, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := dareResidual(a, b, q, r, p)
		if res > 1e-7*(1+p.MaxAbs()) {
			t.Fatalf("trial %d: DARE residual %v", trial, res)
		}
		if !testkit.IsPositiveDefinite(mat.Add(p, mat.Scale(1e-12, mat.Identity(n)))) {
			t.Fatalf("trial %d: P not PSD", trial)
		}
	}
}

func TestDAREUnstablePlantStabilized(t *testing.T) {
	// Unstable scalar plant a=1.2 must be stabilized by the LQR gain.
	a := mat.Diag(1.2)
	b := mat.Diag(1)
	p, err := SolveDARE(a, b, mat.Diag(1), mat.Diag(1))
	if err != nil {
		t.Fatal(err)
	}
	k, err := DAREGain(a, b, mat.Diag(1), p)
	if err != nil {
		t.Fatal(err)
	}
	acl := mat.Sub(a, mat.Mul(b, k))
	r, err := mat.SpectralRadius(acl)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1 {
		t.Fatalf("closed loop unstable: ρ = %v", r)
	}
}

func TestDAREGainStabilizesMIMO(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(3)
		// Possibly unstable A.
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64()*0.7)
			}
		}
		b := mat.New(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		// Require controllability, else skip the trial.
		if !testkit.Controllable(a, b) {
			continue
		}
		p, err := SolveDARE(a, b, mat.Identity(n), mat.Identity(m))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		k, err := DAREGain(a, b, mat.Identity(m), p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		acl := mat.Sub(a, mat.Mul(b, k))
		r, err := mat.SpectralRadius(acl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r >= 1 {
			t.Fatalf("trial %d: closed loop ρ = %v", trial, r)
		}
	}
}

func TestDAREDimensionErrors(t *testing.T) {
	a := mat.Identity(2)
	b := mat.New(2, 1)
	cases := []struct {
		name       string
		a, b, q, r *mat.Matrix
	}{
		{"A not square", mat.New(2, 3), b, mat.Identity(2), mat.Identity(1)},
		{"B rows", a, mat.New(3, 1), mat.Identity(2), mat.Identity(1)},
		{"Q shape", a, b, mat.Identity(3), mat.Identity(1)},
		{"R shape", a, b, mat.Identity(2), mat.Identity(2)},
	}
	for _, tc := range cases {
		if _, err := SolveDARE(tc.a, tc.b, tc.q, tc.r); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
