package lqg

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

// testPlant returns a stable 2-input 2-output coupled plant of order 2.
// output is the plant's y = C x + D u.
func output(p *lti.StateSpace, x, u []float64) []float64 {
	return testkit.VecAdd(testkit.MulVec(p.C, x), testkit.MulVec(p.D, u))
}

func testPlant(t *testing.T) *lti.StateSpace {
	t.Helper()
	a := testkit.FromRows([][]float64{{0.7, 0.1}, {0.05, 0.6}})
	b := testkit.FromRows([][]float64{{0.5, 0.2}, {0.1, 0.4}})
	c := testkit.FromRows([][]float64{{1, 0}, {0, 1}})
	ss, err := lti.NewStateSpace(a, b, c, nil, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func defaultWeights() Weights {
	return Weights{OutputWeights: []float64{100, 100}, InputWeights: []float64{1, 1}}
}

func smallNoise(n, o int) Noise {
	return Noise{W: mat.Scale(1e-6, mat.Identity(n)), V: mat.Scale(1e-6, mat.Identity(o))}
}

func design(t *testing.T, plant *lti.StateSpace, w Weights, opts Options) *Controller {
	t.Helper()
	c, err := Design(plant, w, smallNoise(plant.Order(), plant.Outputs()), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runClosedLoop simulates the true plant under the controller for nSteps
// and returns the trajectories of y and u.
func runClosedLoop(t *testing.T, plant *lti.StateSpace, c *Controller, ref []float64, nSteps int, noise float64, rng *rand.Rand) (ys, us *mat.Matrix) {
	t.Helper()
	if err := c.SetReference(ref); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, plant.Order())
	u := make([]float64, plant.Inputs())
	ys = mat.New(nSteps, plant.Outputs())
	us = mat.New(nSteps, plant.Inputs())
	for k := 0; k < nSteps; k++ {
		y := output(plant, x, u)
		if noise > 0 {
			for i := range y {
				y[i] += noise * rng.NormFloat64()
			}
		}
		copy(ys.RowView(k), y)
		var err error
		u, err = c.Step(y)
		if err != nil {
			t.Fatal(err)
		}
		copy(us.RowView(k), u)
		x = testkit.VecAdd(testkit.MulVec(plant.A, x), testkit.MulVec(plant.B, u))
	}
	return ys, us
}

func TestTrackingConvergesNoiseFree(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	ref := []float64{1.5, -0.5}
	ys, _ := runClosedLoop(t, plant, c, ref, 400, 0, nil)
	last := ys.RowView(399)
	for i := range ref {
		if math.Abs(last[i]-ref[i]) > 1e-3 {
			t.Fatalf("output %d = %v, want %v", i, last[i], ref[i])
		}
	}
}

func TestTrackingWithNoiseStaysNearReference(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	rng := rand.New(rand.NewSource(40))
	ref := []float64{1, 1}
	ys, _ := runClosedLoop(t, plant, c, ref, 2000, 0.02, rng)
	// Average of the last quarter must be close to the reference.
	var avg [2]float64
	for k := 1500; k < 2000; k++ {
		avg[0] += ys.At(k, 0)
		avg[1] += ys.At(k, 1)
	}
	for i := range ref {
		got := avg[i] / 500
		if math.Abs(got-ref[i]) > 0.05 {
			t.Fatalf("output %d average %v, want %v", i, got, ref[i])
		}
	}
}

func TestIntegralEliminatesOffsetUnderModelMismatch(t *testing.T) {
	plant := testPlant(t)
	// Perturbed "real" plant: 20% stronger B — like an unusual app.
	real0 := lti.MustStateSpace(plant.A, mat.Scale(1.2, plant.B), plant.C, nil, plant.Ts)

	withInt := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	without := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: false})

	ref := []float64{1, 0.5}
	ysInt, _ := runClosedLoop(t, real0, withInt, ref, 1500, 0, nil)
	ysNo, _ := runClosedLoop(t, real0, without, ref, 1500, 0, nil)

	for i := range ref {
		errInt := math.Abs(ysInt.At(1499, i) - ref[i])
		errNo := math.Abs(ysNo.At(1499, i) - ref[i])
		if errInt > 1e-2 {
			t.Fatalf("integral controller retains offset %v on output %d", errInt, i)
		}
		if errNo < errInt {
			t.Fatalf("offset without integral (%v) unexpectedly smaller than with (%v)", errNo, errInt)
		}
	}
}

func TestDeltaUWeightSlowsInputMoves(t *testing.T) {
	plant := testPlant(t)
	cheap := design(t, plant, Weights{OutputWeights: []float64{100, 100}, InputWeights: []float64{0.1, 0.1}},
		Options{DeltaU: true, Integral: true})
	costly := design(t, plant, Weights{OutputWeights: []float64{100, 100}, InputWeights: []float64{100, 100}},
		Options{DeltaU: true, Integral: true})
	ref := []float64{1, 1}
	_, usCheap := runClosedLoop(t, plant, cheap, ref, 100, 0, nil)
	_, usCostly := runClosedLoop(t, plant, costly, ref, 100, 0, nil)
	maxStep := func(us *mat.Matrix) float64 {
		var mx float64
		for k := 1; k < us.Rows(); k++ {
			for j := 0; j < us.Cols(); j++ {
				if d := math.Abs(us.At(k, j) - us.At(k-1, j)); d > mx {
					mx = d
				}
			}
		}
		return mx
	}
	if maxStep(usCostly) >= maxStep(usCheap) {
		t.Fatalf("costly inputs moved faster (%v) than cheap (%v)",
			maxStep(usCostly), maxStep(usCheap))
	}
}

func TestOutputWeightPrioritizesOutput(t *testing.T) {
	// When the targets conflict — here a rank-1 input gain forces both
	// outputs to move together, like architectural knobs that change
	// performance and power in a fixed ratio — the output weights decide
	// which reference is honored (paper §IV-B2, Fig. 6 "Power").
	a := mat.Diag(0.5, 0.5)
	b := testkit.FromRows([][]float64{{0.5, 0.25}, {0.5, 0.25}})
	plant := lti.MustStateSpace(a, b, mat.Identity(2), nil, 1)
	ref := []float64{2, 0} // infeasible pair: outputs are always equal

	mk := func(w0, w1 float64) float64 {
		ctrl, err := Design(plant,
			Weights{OutputWeights: []float64{w0, w1}, InputWeights: []float64{1, 1}},
			smallNoise(2, 2), Options{DeltaU: true, Integral: false})
		if err != nil {
			t.Fatal(err)
		}
		ys, _ := runClosedLoop(t, plant, ctrl, ref, 500, 0, nil)
		return math.Abs(ys.At(499, 0) - ref[0]) // error on output 0
	}
	e0Fav := mk(1000, 1) // favor output 0: expect y ≈ [2, 2]
	e0Neg := mk(1, 1000) // neglect output 0: expect y ≈ [0, 0]
	if e0Fav > 0.1 {
		t.Fatalf("favored output error %v too large", e0Fav)
	}
	if e0Neg < 1.5 {
		t.Fatalf("neglected output error %v too small", e0Neg)
	}
}

func TestDesignRejectsMoreOutputsThanInputs(t *testing.T) {
	a := mat.Diag(0.5)
	b := testkit.FromRows([][]float64{{1}})
	c := testkit.FromRows([][]float64{{1}, {2}})
	plant := lti.MustStateSpace(a, b, c, nil, 1)
	_, err := Design(plant, Weights{OutputWeights: []float64{1, 1}, InputWeights: []float64{1}},
		smallNoise(1, 2), Options{DeltaU: true})
	if err == nil {
		t.Fatal("expected rejection: outputs > inputs")
	}
}

func TestDesignRejectsFeedThrough(t *testing.T) {
	a := mat.Diag(0.5)
	b := testkit.FromRows([][]float64{{1}})
	c := testkit.FromRows([][]float64{{1}})
	d := testkit.FromRows([][]float64{{0.1}})
	plant := lti.MustStateSpace(a, b, c, d, 1)
	_, err := Design(plant, Weights{OutputWeights: []float64{1}, InputWeights: []float64{1}},
		smallNoise(1, 1), Options{})
	if err == nil {
		t.Fatal("expected rejection: D != 0")
	}
}

func TestDesignValidatesWeights(t *testing.T) {
	plant := testPlant(t)
	noise := smallNoise(2, 2)
	cases := []Weights{
		{OutputWeights: []float64{1}, InputWeights: []float64{1, 1}},
		{OutputWeights: []float64{1, 1}, InputWeights: []float64{1}},
		{OutputWeights: []float64{0, 1}, InputWeights: []float64{1, 1}},
		{OutputWeights: []float64{1, 1}, InputWeights: []float64{-1, 1}},
	}
	for i, w := range cases {
		if _, err := Design(plant, w, noise, Options{DeltaU: true}); err == nil {
			t.Errorf("case %d: expected weight validation error", i)
		}
	}
}

// TestDesignValidatesNoise pins each noise-covariance rejection to its
// own branch: a missing W or V, and a W or V of the wrong shape.
func TestDesignValidatesNoise(t *testing.T) {
	plant := testPlant(t)
	good := smallNoise(plant.Order(), plant.Outputs())
	for _, tc := range []struct {
		name  string
		noise Noise
		want  string
	}{
		{"nil W", Noise{V: good.V}, "noise covariances are required"},
		{"nil V", Noise{W: good.W}, "noise covariances are required"},
		{"W shape", Noise{W: mat.Identity(1), V: good.V}, "W is 1x1, want 2x2"},
		{"V shape", Noise{W: good.W, V: mat.Identity(1)}, "V is 1x1, want 2x2"},
	} {
		_, err := Design(plant, defaultWeights(), tc.noise, Options{DeltaU: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSetReferenceValidates(t *testing.T) {
	c := design(t, testPlant(t), defaultWeights(), Options{DeltaU: true})
	if err := c.SetReference([]float64{1}); err == nil {
		t.Fatal("expected reference length error")
	}
	if err := c.SetReference([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	r := c.ref
	if r[0] != 1 || r[1] != 2 {
		t.Fatalf("Reference = %v", r)
	}
}

func TestStepValidatesOutputLength(t *testing.T) {
	c := design(t, testPlant(t), defaultWeights(), Options{DeltaU: true})
	if _, err := c.Step([]float64{1}); err == nil {
		t.Fatal("expected output length error")
	}
}

func TestSteadyStateTargetsSatisfyEquilibrium(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	ref := []float64{2, -1}
	if err := c.SetReference(ref); err != nil {
		t.Fatal(err)
	}
	xss, uss := c.xss, c.uss
	// x_ss must be a fixed point: A x_ss + B u_ss = x_ss exactly.
	xNext := testkit.VecAdd(testkit.MulVec(plant.A, xss), testkit.MulVec(plant.B, uss))
	if mat.VecNorm2(testkit.VecSub(xNext, xss)) > 1e-9 {
		t.Fatal("x_ss not an equilibrium")
	}
	// The output target is met in the Q/R-weighted sense: with output
	// weights 100x the input weights, C x_ss must be within a couple of
	// percent of r (integral action removes the rest at runtime).
	yss := testkit.MulVec(plant.C, xss)
	if mat.VecNorm2(testkit.VecSub(yss, ref)) > 0.02*mat.VecNorm2(ref) {
		t.Fatalf("C x_ss = %v, want ≈%v", yss, ref)
	}
}

func TestObserveAppliedCorrectsQuantization(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true, Integral: true})
	if err := c.SetReference([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate closed loop where the actuator rounds inputs to a grid of
	// 0.05; with ObserveApplied the loop must still converge near the
	// reference.
	x := make([]float64, plant.Order())
	u := make([]float64, plant.Inputs())
	var y []float64
	for k := 0; k < 1500; k++ {
		y = output(plant, x, u)
		uReq, err := c.Step(y)
		if err != nil {
			t.Fatal(err)
		}
		uq := make([]float64, len(uReq))
		for i, v := range uReq {
			uq[i] = math.Round(v/0.05) * 0.05
		}
		if err := c.ObserveApplied(uq); err != nil {
			t.Fatal(err)
		}
		u = uq
		x = testkit.VecAdd(testkit.MulVec(plant.A, x), testkit.MulVec(plant.B, u))
	}
	for i, want := range []float64{1, 1} {
		if math.Abs(y[i]-want) > 0.05 {
			t.Fatalf("quantized loop output %d = %v, want ≈%v", i, y[i], want)
		}
	}
}

func TestObserveAppliedValidates(t *testing.T) {
	c := design(t, testPlant(t), defaultWeights(), Options{DeltaU: true})
	if err := c.ObserveApplied([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestAsStateSpaceMatchesStep(t *testing.T) {
	for _, opts := range []Options{
		{DeltaU: true, Integral: true},
		{DeltaU: true, Integral: false},
		{DeltaU: false, Integral: true},
		{DeltaU: false, Integral: false},
	} {
		plant := testPlant(t)
		c := design(t, plant, defaultWeights(), opts)
		css, err := c.AsStateSpace()
		if err != nil {
			t.Fatal(err)
		}
		// Drive both with the same arbitrary y sequence (zero reference)
		// and compare the u they produce.
		rng := rand.New(rand.NewSource(41))
		nSteps := 40
		ySeq := mat.New(nSteps, plant.Outputs())
		for k := 0; k < nSteps; k++ {
			for j := 0; j < plant.Outputs(); j++ {
				ySeq.Set(k, j, rng.NormFloat64())
			}
		}
		uLTI, err := css.Simulate(make([]float64, css.Order()), ySeq)
		if err != nil {
			t.Fatal(err)
		}
		c.Reset()
		if err := c.SetReference(make([]float64, plant.Outputs())); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < nSteps; k++ {
			u, err := c.Step(ySeq.RowView(k))
			if err != nil {
				t.Fatal(err)
			}
			for j := range u {
				if math.Abs(u[j]-uLTI.At(k, j)) > 1e-9 {
					t.Fatalf("opts %+v: step %d input %d: Step=%v, LTI=%v",
						opts, k, j, u[j], uLTI.At(k, j))
				}
			}
		}
	}
}

func TestClosedLoopStable(t *testing.T) {
	plant := testPlant(t)
	for _, opts := range []Options{
		{DeltaU: true, Integral: true},
		{DeltaU: false, Integral: false},
	} {
		c := design(t, plant, defaultWeights(), opts)
		css, err := c.AsStateSpace()
		if err != nil {
			t.Fatal(err)
		}
		// Closed loop: xp⁺ = Ap xp + Bp u; ξ⁺ = Ac ξ + Bc y; y = Cp xp;
		// u = Cc ξ + Dc y.
		np, nc := plant.Order(), css.Order()
		acl := mat.New(np+nc, np+nc)
		acl.SetSubmatrix(0, 0, mat.Add(plant.A, mat.MulChain(plant.B, css.D, plant.C)))
		acl.SetSubmatrix(0, np, mat.Mul(plant.B, css.C))
		acl.SetSubmatrix(np, 0, mat.Mul(css.B, plant.C))
		acl.SetSubmatrix(np, np, css.A)
		r, err := mat.SpectralRadius(acl)
		if err != nil {
			t.Fatal(err)
		}
		if r >= 1 {
			t.Fatalf("opts %+v: closed loop unstable, ρ = %v", opts, r)
		}
	}
}

func TestKalmanEstimateConverges(t *testing.T) {
	plant := testPlant(t)
	c := design(t, plant, defaultWeights(), Options{DeltaU: true})
	if err := c.SetReference([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	// Start the true plant from a nonzero state the controller can't see.
	x := []float64{2, -2}
	u := make([]float64, plant.Inputs())
	for k := 0; k < 300; k++ {
		y := output(plant, x, u)
		var err error
		u, err = c.Step(y)
		if err != nil {
			t.Fatal(err)
		}
		x = testkit.VecAdd(testkit.MulVec(plant.A, x), testkit.MulVec(plant.B, u))
	}
	// After convergence the one-step estimate must match the true state.
	if d := mat.VecNorm2(testkit.VecSub(c.xhat, x)); d > 1e-3 {
		t.Fatalf("estimate error %v after 300 steps", d)
	}
}

// TestKalmanEstimateFiltersNoise checks the controller's estimator under
// measurement noise: the output of the filtered estimate x̂(t|t) is
// closer to the true output than the noisy measurement it was built
// from, by more than a factor of ten (a gain that passes measurements
// through reads ~1; this design reads ~0.001).
func TestKalmanEstimateFiltersNoise(t *testing.T) {
	plant := testPlant(t)
	noiseStd := 0.05
	noise := Noise{
		W: mat.Scale(1e-6, mat.Identity(plant.Order())),
		V: mat.Scale(noiseStd*noiseStd, mat.Identity(plant.Outputs())),
	}
	c, err := Design(plant, defaultWeights(), noise, Options{DeltaU: true, Integral: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetReference([]float64{0.5, -0.2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	x := make([]float64, plant.Order())
	u := make([]float64, plant.Inputs())
	var filtErr, rawErr float64
	n := 0
	for k := 0; k < 2000; k++ {
		yTrue := output(plant, x, u)
		y := append([]float64(nil), yTrue...)
		for i := range y {
			y[i] += noiseStd * rng.NormFloat64()
		}
		if u, err = c.Step(y); err != nil {
			t.Fatal(err)
		}
		if k > 200 {
			yf := testkit.MulVec(plant.C, c.xc)
			filtErr += mat.VecNorm2(testkit.VecSub(yf, yTrue))
			rawErr += mat.VecNorm2(testkit.VecSub(y, yTrue))
			n++
		}
		x = testkit.VecAdd(testkit.MulVec(plant.A, x), testkit.MulVec(plant.B, u))
	}
	if filtErr >= 0.1*rawErr {
		t.Fatalf("filtered estimate error %v is not below a tenth of the raw measurement error %v",
			filtErr/float64(n), rawErr/float64(n))
	}
}
