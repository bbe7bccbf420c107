package adapt

import (
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/sysid"
	"mimoctl/internal/testkit"
)

// fitSeedModel builds a seed model the way the design flow does: PRBS
// excitation through an order-1 2x2 ARX truth, batch-fit at NA=NB=2.
// Returns the model plus the truth matrices so tests can drift them.
func fitSeedModel(t *testing.T, seed int64) (*sysid.Model, *mat.Matrix, *mat.Matrix) {
	t.Helper()
	a1 := testkit.FromRows([][]float64{{0.5, 0.05}, {0.02, 0.45}})
	b1 := testkit.FromRows([][]float64{{0.8, 0.05}, {0.3, 0.1}})
	rng := rand.New(rand.NewSource(seed))
	n := 4000
	u := mat.New(n, 2)
	for j := 0; j < 2; j++ {
		u.SetCol(j, sysid.PRBS(rng, n, 4+3*j, -1, 1))
	}
	y := mat.New(n, 2)
	prevY := []float64{0, 0}
	prevU := []float64{0, 0}
	for k := 0; k < n; k++ {
		yk := testkit.VecAdd(testkit.MulVec(a1, prevY), testkit.MulVec(b1, prevU))
		for j := range yk {
			yk[j] += 0.01 * rng.NormFloat64()
		}
		copy(y.RowView(k), yk)
		prevY, prevU = yk, u.RowView(k)
	}
	d, err := sysid.NewData(u, y, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sysid.FitARX(d, sysid.ARXOrders{NA: 2, NB: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m, a1, b1
}

func TestRLSTracksCoefficientChange(t *testing.T) {
	m, a1, b1 := fitSeedModel(t, 11)
	est := newRLS(m)

	// Warm start must reproduce the batch coefficients exactly.
	aB, bB, _, _ := est.blocks()
	if !testkit.ApproxEqual(aB[0], m.ABlocks[0], 0) || !testkit.ApproxEqual(bB[1], m.BBlocks[1], 0) {
		t.Fatal("warm start does not match the seed model blocks")
	}

	// Drift the truth: scale the power row of B1 and move an IPS pole.
	a1d := a1.Clone()
	a1d.Set(0, 0, 0.62)
	b1d := b1.Clone()
	b1d.Set(1, 0, b1.At(1, 0)*1.5)
	b1d.Set(1, 1, b1.At(1, 1)*1.5)

	// Stream PRBS-excited data from the drifted truth through observe.
	rng := rand.New(rand.NewSource(12))
	n := 3000
	uSig := [2][]float64{
		sysid.PRBS(rng, n, 5, -1, 1),
		sysid.PRBS(rng, n, 11, -1, 1),
	}
	yDev := []float64{0, 0}
	uPrev := []float64{0, 0}
	for k := 0; k < n; k++ {
		yNext := testkit.VecAdd(testkit.MulVec(a1d, yDev), testkit.MulVec(b1d, uPrev))
		for j := range yNext {
			yNext[j] += 0.01 * rng.NormFloat64()
		}
		uk := []float64{uSig[0][k], uSig[1][k]}
		est.observe(yNext, uk, true)
		yDev, uPrev = yNext, uk
	}
	if est.updates == 0 {
		t.Fatal("no RLS updates ran")
	}
	aB, bB, _, _ = est.blocks()
	if !testkit.ApproxEqual(aB[0], a1d, 0.08) {
		t.Fatalf("A1 estimate %v did not track drifted truth %v", aB[0], a1d)
	}
	if !testkit.ApproxEqual(bB[0], b1d, 0.08) {
		t.Fatalf("B1 estimate %v did not track drifted truth %v", bB[0], b1d)
	}
	// The excitation metric separates the two regimes the trigger cares
	// about: under persistent PRBS it floors at O(10) (the
	// over-parameterized regressor is near-collinear, so it cannot
	// reach zero), while an unexcited constant input winds the
	// covariance up toward the trace cap.
	excited := est.excitation()
	if excited > 200 {
		t.Fatalf("excitation metric %v after persistent PRBS, want well below the windup regime", excited)
	}
	idle := newRLS(m)
	yc, uc := []float64{0.05, -0.02}, []float64{0.1, 0.2}
	for k := 0; k < n; k++ {
		idle.observe(yc, uc, true)
	}
	if w := idle.excitation(); w < 10*excited {
		t.Fatalf("windup metric %v not clearly above excited metric %v", w, excited)
	}
}

func TestRLSUncleanAndGapHandling(t *testing.T) {
	m, _, _ := fitSeedModel(t, 13)
	est := newRLS(m)
	y := []float64{0.1, -0.1}
	u := []float64{0.2, 0.3}

	// Fill the lag history, then confirm updates run.
	for i := 0; i < est.lags; i++ {
		est.observe(y, u, true)
	}
	est.observe(y, u, true)
	if est.updates != 1 {
		t.Fatalf("updates = %d after history filled, want 1", est.updates)
	}

	// A poisoned epoch freezes updating until the history refills with
	// contiguous clean samples — fault-era data must not touch theta.
	est.observe([]float64{1e6, 1e6}, u, false)
	before := est.updates
	for i := 0; i < est.lags; i++ {
		est.observe(y, u, true)
		if est.updates != before {
			t.Fatalf("update ran with poisoned sample still in the lag history (i=%d)", i)
		}
	}
	est.observe(y, u, true)
	if est.updates != before+1 {
		t.Fatalf("updates = %d after refill, want %d", est.updates, before+1)
	}

	// gap() has the same contract (hold/step-error epochs).
	est.gap()
	before = est.updates
	for i := 0; i < est.lags; i++ {
		est.observe(y, u, true)
	}
	if est.updates != before {
		t.Fatal("update ran before the post-gap history refilled")
	}
}

func TestRLSObserveZeroAlloc(t *testing.T) {
	m, _, _ := fitSeedModel(t, 14)
	est := newRLS(m)
	y := []float64{0.05, -0.02}
	u := []float64{0.1, 0.2}
	for i := 0; i < 8; i++ {
		est.observe(y, u, true)
	}
	allocs := testing.AllocsPerRun(500, func() {
		est.observe(y, u, true)
	})
	if allocs != 0 {
		t.Fatalf("rls.observe allocates %v times per epoch, want 0", allocs)
	}
}
