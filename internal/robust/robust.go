// Package robust implements the Robust Stability Analysis step of the
// paper's design flow (§IV-B4, Fig. 3 "Robust?"): given the nominal
// plant model, the designed controller, and an uncertainty guardband, it
// checks whether the closed loop remains stable for every perturbation
// within the guardband.
//
// The uncertainty model is multiplicative at the plant output: the real
// plant behaves as (I + Δ)·G with ‖Δ‖∞ bounded by the per-output
// guardbands (e.g. 50% for IPS and 30% for power in the paper). By the
// small-gain theorem the loop is robustly stable iff the H∞ norm of the
// transfer M(z) seen by Δ — from the injected output perturbation to the
// true plant output — satisfies ‖W_g·M‖∞ < 1, where W_g scales each
// output by its guardband.
package robust

import (
	"errors"
	"fmt"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// CloseLoop forms the closed-loop system of a plant (y = G u, no direct
// feed-through) and an output-feedback controller (u = K y, expressed as
// an LTI system, with all feedback signs already inside K).
//
// The returned system maps an additive output disturbance d (injected
// into the measurement: the controller sees y + d) to the true plant
// output y. Its A matrix is the closed-loop dynamics used for nominal
// stability checks.
func CloseLoop(plant, ctrl *lti.StateSpace) (*lti.StateSpace, error) {
	if plant.Outputs() != ctrl.Inputs() || plant.Inputs() != ctrl.Outputs() {
		return nil, fmt.Errorf("robust: plant %d->%d vs controller %d->%d dimension mismatch",
			plant.Inputs(), plant.Outputs(), ctrl.Inputs(), ctrl.Outputs())
	}
	if plant.D.MaxAbs() != 0 {
		return nil, errors.New("robust: plant must have no direct feed-through")
	}
	np, nc := plant.Order(), ctrl.Order()
	no := plant.Outputs()
	// u = Cc ξ + Dc (y + d);  y = Cp xp.
	acl := mat.New(np+nc, np+nc)
	acl.SetSubmatrix(0, 0, mat.Add(plant.A, mat.MulChain(plant.B, ctrl.D, plant.C)))
	acl.SetSubmatrix(0, np, mat.Mul(plant.B, ctrl.C))
	acl.SetSubmatrix(np, 0, mat.Mul(ctrl.B, plant.C))
	acl.SetSubmatrix(np, np, ctrl.A)
	bcl := mat.New(np+nc, no)
	bcl.SetSubmatrix(0, 0, mat.Mul(plant.B, ctrl.D))
	bcl.SetSubmatrix(np, 0, ctrl.B)
	ccl := mat.New(no, np+nc)
	ccl.SetSubmatrix(0, 0, plant.C)
	return lti.NewStateSpace(acl, bcl, ccl, nil, plant.Ts)
}

// Report is the outcome of a robust stability analysis.
type Report struct {
	// NominallyStable is the closed-loop spectral radius test.
	NominallyStable bool
	// SpectralRadius is the closed-loop spectral radius.
	SpectralRadius float64
	// PeakGain is ‖W_g·M‖∞, the worst-case loop gain seen by the
	// normalized uncertainty.
	PeakGain float64
	// PeakFrequency is where the peak occurs (rad/s).
	PeakFrequency float64
	// RobustlyStable is the small-gain verdict: PeakGain < 1.
	RobustlyStable bool
	// Margin is 1/PeakGain: how much larger the uncertainty could be
	// before the small-gain certificate is lost.
	Margin float64
}

// Analyze runs nominal and robust stability analysis for the given
// per-output uncertainty guardbands (fractions, e.g. 0.5 for 50%).
func Analyze(plant, ctrl *lti.StateSpace, guardbands []float64) (*Report, error) {
	if len(guardbands) != plant.Outputs() {
		return nil, fmt.Errorf("robust: %d guardbands for %d outputs", len(guardbands), plant.Outputs())
	}
	for _, g := range guardbands {
		if g < 0 {
			return nil, errors.New("robust: guardbands must be non-negative")
		}
	}
	loop, err := CloseLoop(plant, ctrl)
	if err != nil {
		return nil, err
	}
	rho, err := mat.SpectralRadius(loop.A)
	if err != nil {
		return nil, fmt.Errorf("robust: spectral radius: %w", err)
	}
	rep := &Report{SpectralRadius: rho, NominallyStable: rho < 1}
	if !rep.NominallyStable {
		// Without nominal stability the H∞ norm is meaningless.
		rep.PeakGain = 1e308
		return rep, nil
	}
	// Scale the disturbance channel by the guardbands: M_g = M · W_g.
	// (Δ acts as d = Δ y; with per-output bound g_i, write Δ = W_g·Δ̃ with
	// ‖Δ̃‖ ≤ 1, so the normalized loop seen by Δ̃ is W_g-weighted.)
	wg := mat.Diag(guardbands...)
	weighted, err := lti.NewStateSpace(loop.A, loop.B, mat.Mul(wg, loop.C), nil, loop.Ts)
	if err != nil {
		return nil, err
	}
	peak, freq, err := weighted.HInfNorm(512)
	if err != nil {
		return nil, fmt.Errorf("robust: H∞ estimation: %w", err)
	}
	rep.PeakGain = peak
	rep.PeakFrequency = freq
	rep.RobustlyStable = peak < 1
	if peak > 0 {
		rep.Margin = 1 / peak
	}
	return rep, nil
}
