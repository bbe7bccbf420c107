package lti

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

// step advances the state one sample with fresh slices, x(t+1) =
// A x + B u and y(t) = C x + D u: the arithmetic Simulate runs in place.
func step(s *StateSpace, x, u []float64) (xNext, y []float64) {
	xNext = testkit.VecAdd(testkit.MulVec(s.A, x), testkit.MulVec(s.B, u))
	y = testkit.VecAdd(testkit.MulVec(s.C, x), testkit.MulVec(s.D, u))
	return xNext, y
}

// StepResponse simulates the response to a unit step on input j for
// nSteps samples from zero initial state.
func (s *StateSpace) StepResponse(j, nSteps int) (*mat.Matrix, error) {
	if j < 0 || j >= s.Inputs() {
		return nil, fmt.Errorf("lti: input index %d out of range", j)
	}
	u := mat.New(nSteps, s.Inputs())
	for k := 0; k < nSteps; k++ {
		u.Set(k, j, 1)
	}
	return s.Simulate(make([]float64, s.Order()), u)
}

// MustStateSpace is NewStateSpace that panics on error; for literals in
// tests.
func MustStateSpace(a, b, c, d *mat.Matrix, ts float64) *StateSpace {
	ss, err := NewStateSpace(a, b, c, d, ts)
	if err != nil {
		panic(err)
	}
	return ss
}

// IsStable reports whether every pole lies strictly inside the unit
// circle (Schur stability), with margin eps.
func (s *StateSpace) IsStable(eps float64) (bool, error) {
	r, err := mat.SpectralRadius(s.A)
	if err != nil {
		return false, err
	}
	return r < 1-eps, nil
}

// DCGain returns the steady-state gain matrix C (I-A)⁻¹ B + D, the output
// reached for a unit constant input. Returns an error if (I-A) is
// singular (a pole at z = 1).
func (s *StateSpace) DCGain() (*mat.Matrix, error) {
	n := s.Order()
	ia := mat.Sub(mat.Identity(n), s.A)
	x, err := mat.Solve(ia, s.B)
	if err != nil {
		return nil, fmt.Errorf("lti: DC gain undefined (pole at z=1): %w", err)
	}
	return mat.Add(mat.Mul(s.C, x), s.D), nil
}

// twoStateSystem returns a simple stable 2-state, 1-in, 1-out system.
func twoStateSystem(t *testing.T) *StateSpace {
	t.Helper()
	a := testkit.FromRows([][]float64{{0.5, 0.1}, {0, 0.3}})
	b := testkit.FromRows([][]float64{{1}, {0.5}})
	c := testkit.FromRows([][]float64{{1, 0}})
	ss, err := NewStateSpace(a, b, c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestNewStateSpaceValidation(t *testing.T) {
	a := mat.Identity(2)
	b := mat.New(2, 1)
	c := mat.New(1, 2)
	cases := []struct {
		name    string
		a, b, c *mat.Matrix
		d       *mat.Matrix
		ts      float64
	}{
		{"non-square A", mat.New(2, 3), b, c, nil, 1},
		{"B rows", a, mat.New(3, 1), c, nil, 1},
		{"C cols", a, b, mat.New(1, 3), nil, 1},
		{"D shape", a, b, c, mat.New(2, 2), 1},
		{"bad Ts", a, b, c, nil, 0},
	}
	for _, tc := range cases {
		if _, err := NewStateSpace(tc.a, tc.b, tc.c, tc.d, tc.ts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	ss, err := NewStateSpace(a, b, c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.D.Rows() != 1 || ss.D.Cols() != 1 {
		t.Fatalf("default D shape %dx%d", ss.D.Rows(), ss.D.Cols())
	}
	if ss.Order() != 2 || ss.Inputs() != 1 || ss.Outputs() != 1 {
		t.Fatal("dimension accessors wrong")
	}
}

func TestSimulateMatchesManualStep(t *testing.T) {
	ss := twoStateSystem(t)
	u := testkit.FromRows([][]float64{{1}, {1}, {0}, {-1}})
	y, err := ss.Simulate([]float64{0, 0}, u)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0}
	for k := 0; k < u.Rows(); k++ {
		var yk []float64
		xNext, yk := step(ss, x, u.RowView(k))
		if math.Abs(y.At(k, 0)-yk[0]) > 1e-15 {
			t.Fatalf("step %d: Simulate %v vs Step %v", k, y.At(k, 0), yk[0])
		}
		x = xNext
	}
}

// randomSystem returns a 4-state, 3-input, 2-output system with a
// non-zero feed-through and random inputs of n samples.
func randomSystem(t *testing.T, n int) (*StateSpace, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	fill := func(r, c int, scale float64) *mat.Matrix {
		m := mat.New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, scale*rng.NormFloat64())
			}
		}
		return m
	}
	ss, err := NewStateSpace(fill(4, 4, 0.3), fill(4, 3, 1), fill(2, 4, 1), fill(2, 3, 0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ss, fill(n, 3, 1)
}

// TestSimulateMatchesStepBits: Simulate's outputs are Step's, bit for
// bit, and x0 is left as it was.
func TestSimulateMatchesStepBits(t *testing.T) {
	ss, u := randomSystem(t, 200)
	x0 := []float64{0.1, -0.2, 0.3, 0.05}
	y, err := ss.Simulate(x0, u)
	if err != nil {
		t.Fatal(err)
	}
	if x0[0] != 0.1 || x0[1] != -0.2 || x0[2] != 0.3 || x0[3] != 0.05 {
		t.Fatalf("Simulate modified x0: %v", x0)
	}
	x := append([]float64(nil), x0...)
	for k := 0; k < u.Rows(); k++ {
		xNext, yk := step(ss, x, u.RowView(k))
		for j, v := range yk {
			if got := y.At(k, j); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("sample %d output %d: Simulate %v, Step %v", k, j, got, v)
			}
		}
		x = xNext
	}
}

// TestSimulateAllocsIndependentOfSamples: Simulate allocates its
// result and scratch once, never per sample.
func TestSimulateAllocsIndependentOfSamples(t *testing.T) {
	allocs := func(n int) float64 {
		ss, u := randomSystem(t, n)
		x0 := make([]float64, ss.Order())
		return testing.AllocsPerRun(20, func() {
			if _, err := ss.Simulate(x0, u); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(4), allocs(1000); short != long {
		t.Errorf("Simulate: %v allocs over 4 samples, %v over 1000; want no per-sample allocation", short, long)
	}
}

func TestDCGain(t *testing.T) {
	// Scalar system x+ = 0.5x + u, y = x: DC gain 1/(1-0.5) = 2.
	ss := MustStateSpace(
		testkit.FromRows([][]float64{{0.5}}),
		testkit.FromRows([][]float64{{1}}),
		testkit.FromRows([][]float64{{1}}),
		nil, 1)
	g, err := ss.DCGain()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.At(0, 0)-2) > 1e-12 {
		t.Fatalf("DCGain = %v, want 2", g.At(0, 0))
	}
}

func TestDCGainMatchesLongStepResponse(t *testing.T) {
	ss := twoStateSystem(t)
	g, err := ss.DCGain()
	if err != nil {
		t.Fatal(err)
	}
	y, err := ss.StepResponse(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	final := y.At(199, 0)
	if math.Abs(final-g.At(0, 0)) > 1e-9 {
		t.Fatalf("step response final %v, DC gain %v", final, g.At(0, 0))
	}
}

func TestPolesAndStability(t *testing.T) {
	ss := twoStateSystem(t)
	poles, err := mat.Eigenvalues(ss.A)
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 2 {
		t.Fatalf("got %d poles", len(poles))
	}
	// Triangular A: poles are 0.5 and 0.3.
	mags := []float64{real(poles[0]), real(poles[1])}
	if math.Abs(mags[0]-0.5) > 1e-10 || math.Abs(mags[1]-0.3) > 1e-10 {
		t.Fatalf("poles = %v", poles)
	}
	stable, err := ss.IsStable(0)
	if err != nil || !stable {
		t.Fatalf("system should be stable: %v %v", stable, err)
	}
	unstable := MustStateSpace(mat.Diag(1.1), testkit.FromRows([][]float64{{1}}),
		testkit.FromRows([][]float64{{1}}), nil, 1)
	st, err := unstable.IsStable(0)
	if err != nil || st {
		t.Fatal("1.1-pole system should be unstable")
	}
}

func TestControllabilityObservability(t *testing.T) {
	ss := twoStateSystem(t)
	if !testkit.Controllable(ss.A, ss.B) {
		t.Fatal("expected controllable")
	}
	if !testkit.Observable(ss.A, ss.C) {
		t.Fatal("expected observable")
	}
	// Uncontrollable: B in the span of one mode only, A diagonal.
	un := MustStateSpace(mat.Diag(0.5, 0.3),
		testkit.FromRows([][]float64{{1}, {0}}),
		testkit.FromRows([][]float64{{1, 1}}), nil, 1)
	if testkit.Controllable(un.A, un.B) {
		t.Fatal("expected uncontrollable")
	}
	// Unobservable: C sees only one mode.
	uo := MustStateSpace(mat.Diag(0.5, 0.3),
		testkit.FromRows([][]float64{{1}, {1}}),
		testkit.FromRows([][]float64{{1, 0}}), nil, 1)
	if testkit.Observable(uo.A, uo.C) {
		t.Fatal("expected unobservable")
	}
}

func TestFrequencyResponseDC(t *testing.T) {
	ss := twoStateSystem(t)
	g0, err := newTransferEval(ss).eval(1) // z = e^(j·0·Ts)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ss.DCGain()
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.CNorm2(mat.CSubInto(mat.CNew(1, 1), g0, mat.CFromReal(dc))); d > 1e-12 {
		t.Fatalf("|G(1) - DC gain| = %v", d)
	}
}

func TestHInfNormFirstOrder(t *testing.T) {
	// y = u through x+ = a x + u, y = (1-a) x: H∞ norm = 1 at DC for
	// a in (0,1) since |G(e^jw)| = (1-a)/|e^jw - a| peaks at w=0.
	ss := MustStateSpace(mat.Diag(0.8), testkit.FromRows([][]float64{{1}}),
		testkit.FromRows([][]float64{{0.2}}), nil, 0.01)
	norm, w, err := ss.HInfNorm(128)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-1) > 1e-6 {
		t.Fatalf("H∞ = %v, want 1 (peak at ω=%v)", norm, w)
	}
}

func TestHInfNormResonantPeak(t *testing.T) {
	// A lightly damped 2nd-order discrete system must have H∞ > |DC gain|.
	wn, zeta, ts := 1.0, 0.05, 0.1
	// Discretized via the standard difference approximation for tests.
	a := testkit.FromRows([][]float64{
		{1, ts},
		{-wn * wn * ts, 1 - 2*zeta*wn*ts},
	})
	b := testkit.FromRows([][]float64{{0}, {ts}})
	c := testkit.FromRows([][]float64{{wn * wn, 0}})
	ss := MustStateSpace(a, b, c, nil, ts)
	stable, err := ss.IsStable(0)
	if err != nil || !stable {
		t.Fatalf("test system unstable: %v", err)
	}
	norm, _, err := ss.HInfNorm(256)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ss.DCGain()
	if err != nil {
		t.Fatal(err)
	}
	if norm <= math.Abs(dc.At(0, 0))*1.5 {
		t.Fatalf("expected resonant peak: H∞=%v, DC=%v", norm, dc.At(0, 0))
	}
}

func TestSimulateInputValidation(t *testing.T) {
	ss := twoStateSystem(t)
	if _, err := ss.Simulate([]float64{0, 0}, mat.New(5, 3)); err == nil {
		t.Fatal("expected input-width error")
	}
	if _, err := ss.Simulate([]float64{0}, mat.New(5, 1)); err == nil {
		t.Fatal("expected x0-length error")
	}
	if _, err := ss.StepResponse(7, 10); err == nil {
		t.Fatal("expected input-index error")
	}
}
