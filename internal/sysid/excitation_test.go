package sysid

import (
	"errors"
	"math/rand"
	"testing"

	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

// constantRecord is the canonical unexcited closed-loop window: the
// regulator holds the plant at one operating point, so every detrended
// regressor column is (near) zero.
func constantRecord(n int, jitter float64, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	u := mat.New(n, 2)
	y := mat.New(n, 2)
	for k := 0; k < n; k++ {
		u.Set(k, 0, 1.2)
		u.Set(k, 1, 3.0)
		y.Set(k, 0, 2.5+jitter*rng.NormFloat64())
		y.Set(k, 1, 2.0+jitter*rng.NormFloat64())
	}
	d, _ := NewData(u, y, 1)
	return d
}

func TestFitARXInsufficientExcitationConstant(t *testing.T) {
	d := constantRecord(400, 0, 30)
	_, err := FitARX(d, ARXOrders{NA: 1, NB: 1, Direct: true})
	if !errors.Is(err, ErrInsufficientExcitation) {
		t.Fatalf("constant record: err = %v, want ErrInsufficientExcitation", err)
	}
}

func TestFitARXInsufficientExcitationNoisyConstant(t *testing.T) {
	// Sensor noise makes the output columns technically full rank, but
	// the input columns stay constant: the conditioning check must still
	// refuse the fit rather than hand back noise-amplified coefficients.
	d := constantRecord(400, 1e-3, 31)
	_, err := FitARX(d, ARXOrders{NA: 1, NB: 1, Direct: true})
	if !errors.Is(err, ErrInsufficientExcitation) {
		t.Fatalf("noisy constant record: err = %v, want ErrInsufficientExcitation", err)
	}
}

func TestFitARXExcitedStillFits(t *testing.T) {
	// Regression guard: the new rank check must not reject a well
	// excited record (same data as TestFitARXRecoversNoiseFree).
	rng := rand.New(rand.NewSource(20))
	d := simulateTruth(rng, 600, 0)
	if _, err := FitARX(d, ARXOrders{NA: 1, NB: 1, Direct: true}); err != nil {
		t.Fatalf("excited record rejected: %v", err)
	}
}

func TestModelFromBlocksMatchesFitARX(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := simulateTruth(rng, 600, 0.01)
	ref, err := FitARX(d, ARXOrders{NA: 2, NB: 2, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFromBlocks(ref.ABlocks, ref.BBlocks, ref.B0, ref.Off, ref.V, d.Ts)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.ApproxEqual(m.SS.A, ref.SS.A, 0) || !testkit.ApproxEqual(m.SS.B, ref.SS.B, 0) ||
		!testkit.ApproxEqual(m.SS.C, ref.SS.C, 0) || !testkit.ApproxEqual(m.SS.D, ref.SS.D, 0) {
		t.Fatal("ModelFromBlocks realization differs from FitARX")
	}
	if !testkit.ApproxEqual(m.K, ref.K, 0) || !testkit.ApproxEqual(m.W, ref.W, 0) {
		t.Fatal("ModelFromBlocks noise matrices differ from FitARX")
	}
}

func TestModelFromBlocksValidation(t *testing.T) {
	v := mat.Identity(2)
	if _, err := ModelFromBlocks(nil, nil, nil, Offsets{}, v, 1); err == nil {
		t.Fatal("no A blocks accepted")
	}
	a := []*mat.Matrix{mat.Identity(2)}
	if _, err := ModelFromBlocks(a, nil, nil, Offsets{}, v, 1); err == nil {
		t.Fatal("no input blocks accepted")
	}
	b := []*mat.Matrix{mat.New(2, 2)}
	if _, err := ModelFromBlocks(a, b, nil, Offsets{}, nil, 1); err == nil {
		t.Fatal("missing noise covariance accepted")
	}
	if _, err := ModelFromBlocks(a, b, nil, Offsets{}, v, 1); err != nil {
		t.Fatalf("valid blocks rejected: %v", err)
	}
}
