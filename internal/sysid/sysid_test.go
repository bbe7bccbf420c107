package sysid

import (
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

// simulateTruth generates data from a known 2-output, 2-input ARX system
// with optional output noise.
func simulateTruth(rng *rand.Rand, n int, noise float64) *Data {
	// True system: y(t) = A1 y(t-1) + B0 u(t) + B1 u(t-1) + e(t).
	a1 := testkit.FromRows([][]float64{{0.6, 0.1}, {0.05, 0.5}})
	b0 := testkit.FromRows([][]float64{{0.5, 0.0}, {0.1, 0.3}})
	b1 := testkit.FromRows([][]float64{{0.2, 0.1}, {0.0, 0.2}})
	u := mat.New(n, 2)
	for j := 0; j < 2; j++ {
		sig := PRBS(rng, n, 3+j, -1, 1)
		u.SetCol(j, sig)
	}
	y := mat.New(n, 2)
	prevY := []float64{0, 0}
	prevU := []float64{0, 0}
	for k := 0; k < n; k++ {
		uk := u.RowView(k)
		yk := testkit.VecAdd(testkit.MulVec(a1, prevY), testkit.VecAdd(testkit.MulVec(b0, uk), testkit.MulVec(b1, prevU)))
		for j := range yk {
			yk[j] += noise * rng.NormFloat64()
		}
		copy(y.RowView(k), yk)
		prevY, prevU = yk, uk
	}
	d, _ := NewData(u, y, 1)
	return d
}

func TestFitARXRecoversNoiseFree(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := simulateTruth(rng, 600, 0)
	m, err := FitARX(d, ARXOrders{NA: 1, NB: 1, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients must be recovered almost exactly.
	wantA1 := testkit.FromRows([][]float64{{0.6, 0.1}, {0.05, 0.5}})
	if !testkit.ApproxEqual(m.ABlocks[0], wantA1, 1e-4) {
		t.Fatalf("A1 = %v, want %v", m.ABlocks[0], wantA1)
	}
	wantB0 := testkit.FromRows([][]float64{{0.5, 0.0}, {0.1, 0.3}})
	if !testkit.ApproxEqual(m.B0, wantB0, 1e-4) {
		t.Fatalf("B0 = %v, want %v", m.B0, wantB0)
	}
	// Free-run prediction must match the data nearly perfectly.
	pred, err := m.Predict(d)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitPercent(d.Y, pred)
	if err != nil {
		t.Fatal(err)
	}
	for j, f := range fit {
		if f < 98 {
			t.Fatalf("output %d fit %.2f%%, want ~100%%", j, f)
		}
	}
}

func TestFitARXWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := simulateTruth(rng, 4000, 0.05)
	m, err := FitARX(d, ARXOrders{NA: 1, NB: 1, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	wantA1 := testkit.FromRows([][]float64{{0.6, 0.1}, {0.05, 0.5}})
	if !testkit.ApproxEqual(m.ABlocks[0], wantA1, 0.05) {
		t.Fatalf("A1 = %v far from truth %v", m.ABlocks[0], wantA1)
	}
	// Estimated measurement-noise variance should be near 0.05² = 0.0025.
	for j := 0; j < 2; j++ {
		if v := m.V.At(j, j); v < 0.001 || v > 0.005 {
			t.Fatalf("V[%d][%d] = %v, want ≈0.0025", j, j, v)
		}
	}
	// Process noise W = K V Kᵀ must be PSD and finite.
	if !m.W.IsFinite() {
		t.Fatal("W not finite")
	}
}

func TestRealizationMatchesARXSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// A trace of noise keeps the over-parameterized (NA=2 on an order-1
	// truth) regressor full rank; exactly noise-free data makes the extra
	// lag columns collinear, which FitARX now rejects as unexcited
	// instead of silently returning the minimum-norm fit.
	d := simulateTruth(rng, 500, 1e-3)
	m, err := FitARX(d, ARXOrders{NA: 2, NB: 2, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.SS.Order() != 4 {
		t.Fatalf("state dim %d, want 4 (p=2, O=2)", m.SS.Order())
	}
	// The state-space realization must reproduce the one-step ARX
	// predictor in free run on noise-free data.
	pred, err := m.Predict(d)
	if err != nil {
		t.Fatal(err)
	}
	onestep, err := m.OneStepPredict(d)
	if err != nil {
		t.Fatal(err)
	}
	// On noise-free data generated by an order-1 system, both should be
	// near-perfect; compare them to the truth.
	fitSim, _ := FitPercent(d.Y, pred)
	fitOne, _ := FitPercent(d.Y, onestep)
	for j := 0; j < 2; j++ {
		if fitSim[j] < 98 || fitOne[j] < 98 {
			t.Fatalf("fits: sim %v one-step %v", fitSim, fitOne)
		}
	}
}

func TestStateDim(t *testing.T) {
	if got := (ARXOrders{NA: 2, NB: 2, Direct: true}).StateDim(2); got != 4 {
		t.Fatalf("StateDim = %d, want 4", got)
	}
	if got := (ARXOrders{NA: 3, NB: 1}).StateDim(2); got != 6 {
		t.Fatalf("StateDim = %d, want 6", got)
	}
}

func TestOrdersValidate(t *testing.T) {
	if err := (ARXOrders{NA: 0, NB: 1}).Validate(); err == nil {
		t.Fatal("NA=0 must be rejected")
	}
	if err := (ARXOrders{NA: 1, NB: 0}).Validate(); err == nil {
		t.Fatal("no input dependence must be rejected")
	}
	if err := (ARXOrders{NA: 1, NB: 0, Direct: true}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDetrendRemovesMeans(t *testing.T) {
	u := testkit.FromRows([][]float64{{2}, {4}, {6}})
	y := testkit.FromRows([][]float64{{10}, {20}, {30}})
	d, _ := NewData(u, y, 1)
	det, off := Detrend(d)
	if off.U0[0] != 4 || off.Y0[0] != 20 {
		t.Fatalf("offsets = %v %v", off.U0, off.Y0)
	}
	if det.U.At(0, 0) != -2 || det.Y.At(2, 0) != 10 {
		t.Fatalf("detrended wrong: %v %v", det.U, det.Y)
	}
}

func TestSplit(t *testing.T) {
	d := simulateTruth(rand.New(rand.NewSource(23)), 100, 0)
	tr, val := d.Split(0.7)
	if tr.Samples() != 70 || val.Samples() != 30 {
		t.Fatalf("split sizes %d/%d", tr.Samples(), val.Samples())
	}
}

func TestSelectOrderFindsTrueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := simulateTruth(rng, 3000, 0.01)
	tr, val := d.Split(0.6)
	best, results, err := SelectOrder(tr, val, 4, true, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	// True system is order 1 (state dim 2); with tolerance, order 1
	// should be picked.
	if results[best].Orders.NA != 1 {
		t.Fatalf("selected order %d, want 1 (errors: %v)", results[best].Orders.NA, results)
	}
}

func TestRecordTooShort(t *testing.T) {
	d := simulateTruth(rand.New(rand.NewSource(25)), 8, 0)
	if _, err := FitARX(d, ARXOrders{NA: 3, NB: 3, Direct: true}); err == nil {
		t.Fatal("expected record-too-short error")
	}
}

func TestPRBSProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sig := PRBS(rng, 1000, 5, -2, 3)
	seenLo, seenHi := false, false
	for i, v := range sig {
		if v != -2 && v != 3 {
			t.Fatalf("sample %d = %v, not a PRBS level", i, v)
		}
		if v == -2 {
			seenLo = true
		} else {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("PRBS did not visit both levels")
	}
	// Holds must last 5 samples (except possibly at the end).
	for i := 0; i+5 <= len(sig); i += 5 {
		for j := 1; j < 5; j++ {
			if sig[i+j] != sig[i] {
				t.Fatalf("hold violated at %d", i+j)
			}
		}
	}
}

func TestRandomLevelsRespectsLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	levels := []float64{1, 2, 3}
	sig := RandomLevels(rng, 500, levels, 2, 6)
	for i, v := range sig {
		if v != 1 && v != 2 && v != 3 {
			t.Fatalf("sample %d = %v not in levels", i, v)
		}
	}
}

func TestFitPercentPerfectAndMean(t *testing.T) {
	y := testkit.FromRows([][]float64{{1}, {2}, {3}})
	fit, err := FitPercent(y, y.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if fit[0] != 100 {
		t.Fatalf("perfect fit = %v", fit[0])
	}
	meanPred := testkit.FromRows([][]float64{{2}, {2}, {2}})
	fit, err = FitPercent(y, meanPred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit[0]) > 1e-12 {
		t.Fatalf("mean predictor fit = %v, want 0", fit[0])
	}
}

func TestMeanAndMaxRelError(t *testing.T) {
	y := testkit.FromRows([][]float64{{10}, {10}})
	p := testkit.FromRows([][]float64{{11}, {9}})
	mean, err := MeanRelError(y, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean[0]-0.1) > 1e-12 {
		t.Fatalf("MeanRelError = %v, want 0.1", mean[0])
	}
	mx, err := MaxRelError(y, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mx[0]-0.1) > 1e-12 {
		t.Fatalf("MaxRelError = %v, want 0.1", mx[0])
	}
}

func TestIdentifiedModelIsStableAndUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := simulateTruth(rng, 2000, 0.02)
	m, err := FitARX(d, ARXOrders{NA: 2, NB: 2, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	rho, err := mat.SpectralRadius(m.SS.A)
	if err != nil {
		t.Fatal(err)
	}
	if rho >= 1 {
		t.Fatal("identified model unstable")
	}
	var _ *lti.StateSpace = m.SS
	if !testkit.Observable(m.SS.A, m.SS.C) {
		t.Fatal("observer-form realization should be observable")
	}
}
