package lti

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

// Property tests of the defining LTI axioms — linearity, superposition,
// time invariance — and the consistency between time-domain and
// frequency-domain views.

func randomInput(rng *rand.Rand, n, cols int) *mat.Matrix {
	u := mat.New(n, cols)
	for i := 0; i < n; i++ {
		for j := 0; j < cols; j++ {
			u.Set(i, j, rng.NormFloat64())
		}
	}
	return u
}

func TestPropertySuperposition(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		s := MustStateSpace(randStable(rng, n), randomInput(rng, n, 2),
			randomInput(rng, 2, n), nil, 1)
		u1 := randomInput(rng, 40, 2)
		u2 := randomInput(rng, 40, 2)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		mix := mat.Add(mat.Scale(a, u1), mat.Scale(b, u2))
		y1, err := s.Simulate(make([]float64, n), u1)
		if err != nil {
			t.Fatal(err)
		}
		y2, err := s.Simulate(make([]float64, n), u2)
		if err != nil {
			t.Fatal(err)
		}
		ymix, err := s.Simulate(make([]float64, n), mix)
		if err != nil {
			t.Fatal(err)
		}
		want := mat.Add(mat.Scale(a, y1), mat.Scale(b, y2))
		if !testkit.ApproxEqual(ymix, want, 1e-9*(1+want.MaxAbs())) {
			t.Fatalf("trial %d: superposition violated", trial)
		}
	}
}

func TestPropertyTimeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		s := MustStateSpace(randStable(rng, n), randomInput(rng, n, 1),
			randomInput(rng, 1, n), nil, 1)
		shift := 1 + rng.Intn(5)
		steps := 50
		u := randomInput(rng, steps, 1)
		// Shifted input: `shift` zeros then u.
		uShift := mat.New(steps+shift, 1)
		for k := 0; k < steps; k++ {
			uShift.Set(k+shift, 0, u.At(k, 0))
		}
		y, err := s.Simulate(make([]float64, n), u)
		if err != nil {
			t.Fatal(err)
		}
		yShift, err := s.Simulate(make([]float64, n), uShift)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			if math.Abs(y.At(k, 0)-yShift.At(k+shift, 0)) > 1e-10 {
				t.Fatalf("trial %d: time invariance violated at k=%d", trial, k)
			}
		}
	}
}

func TestPropertySteadySinusoidMatchesFrequencyResponse(t *testing.T) {
	// Drive a stable SISO system with a long sinusoid; the steady
	// amplitude ratio must equal |G(e^jω)|.
	s := MustStateSpace(
		testkit.FromRows([][]float64{{0.6, 0.2}, {-0.1, 0.5}}),
		testkit.FromRows([][]float64{{1}, {0.3}}),
		testkit.FromRows([][]float64{{0.7, -0.4}}), nil, 1)
	omega := 0.37 // rad/sample (Ts = 1)
	g, err := newTransferEval(s).eval(cmplx.Exp(complex(0, omega*s.Ts)))
	if err != nil {
		t.Fatal(err)
	}
	wantMag := mat.CNorm2(g) // |G(e^jω)| of the SISO system

	steps := 4000
	u := mat.New(steps, 1)
	for k := 0; k < steps; k++ {
		u.Set(k, 0, math.Sin(omega*float64(k)))
	}
	y, err := s.Simulate([]float64{0, 0}, u)
	if err != nil {
		t.Fatal(err)
	}
	// Steady amplitude from the last quarter.
	peak := 0.0
	for k := 3 * steps / 4; k < steps; k++ {
		if a := math.Abs(y.At(k, 0)); a > peak {
			peak = a
		}
	}
	if math.Abs(peak-wantMag) > 0.02*wantMag {
		t.Fatalf("sinusoid amplitude %v vs |G| %v", peak, wantMag)
	}
}

func TestPropertyDCGainMatchesTransferAtZ1(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		s := MustStateSpace(randStable(rng, n), randomInput(rng, n, 2),
			randomInput(rng, 2, n), nil, 1)
		dc, err := s.DCGain()
		if err != nil {
			t.Fatal(err)
		}
		g1, err := newTransferEval(s).eval(complex(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if d := mat.CNorm2(mat.CSubInto(mat.CNew(2, 2), g1, mat.CFromReal(dc))); d > 1e-9 {
			t.Fatalf("trial %d: ‖G(1) - DC gain‖ = %v", trial, d)
		}
	}
}

func TestPropertyPolesInvariantUnderSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		s := MustStateSpace(randStable(rng, n), randomInput(rng, n, 1),
			randomInput(rng, 1, n), nil, 1)
		// Random similarity transform T.
		var tm *mat.Matrix
		for {
			tm = randomInput(rng, n, n)
			for i := 0; i < n; i++ {
				tm.Set(i, i, tm.At(i, i)+float64(n))
			}
			if _, err := mat.Inverse(tm); err == nil {
				break
			}
		}
		ti, err := mat.Inverse(tm)
		if err != nil {
			t.Fatal(err)
		}
		s2 := MustStateSpace(mat.MulChain(ti, s.A, tm), mat.Mul(ti, s.B), mat.Mul(s.C, tm), nil, 1)
		p1, err := mat.Eigenvalues(s.A)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := mat.Eigenvalues(s2.A)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			if math.Hypot(real(p1[i]-p2[i]), imag(p1[i]-p2[i])) > 1e-6*(1+math.Hypot(real(p1[i]), imag(p1[i]))) {
				t.Fatalf("trial %d: poles moved under similarity: %v vs %v", trial, p1, p2)
			}
		}
	}
}
