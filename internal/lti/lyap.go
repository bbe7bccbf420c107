package lti

import (
	"errors"
	"fmt"

	"mimoctl/internal/mat"
)

// SolveDARE solves the discrete algebraic Riccati equation
//
//	P = AᵀPA - AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q
//
// using the structured doubling algorithm (SDA), which converges
// quadratically for stabilizable/detectable problems, with a fixed-point
// fallback. Q must be positive semidefinite and R positive definite.
func SolveDARE(a, b, q, r *mat.Matrix) (*mat.Matrix, error) {
	n := a.Rows()
	if !a.IsSquare() {
		return nil, errors.New("lti: DARE A must be square")
	}
	if b.Rows() != n {
		return nil, fmt.Errorf("lti: DARE B has %d rows, want %d", b.Rows(), n)
	}
	if q.Rows() != n || q.Cols() != n {
		return nil, fmt.Errorf("lti: DARE Q must be %dx%d", n, n)
	}
	if r.Rows() != b.Cols() || r.Cols() != b.Cols() {
		return nil, fmt.Errorf("lti: DARE R must be %dx%d", b.Cols(), b.Cols())
	}
	rinv, err := mat.Inverse(r)
	if err != nil {
		return nil, fmt.Errorf("lti: DARE R not invertible: %w", err)
	}
	if p, err := dareDoubling(a, b, q, rinv); err == nil {
		if resid := dareResidual(a, b, q, r, p); resid < 1e-6*(1+p.MaxAbs()) {
			return p, nil
		}
	}
	return dareIterate(a, b, q, r)
}

// dareDoubling runs the structured doubling algorithm:
//
//	A_{k+1} = A_k (I + G_k H_k)⁻¹ A_k
//	G_{k+1} = G_k + A_k (I + G_k H_k)⁻¹ G_k A_kᵀ
//	H_{k+1} = H_k + A_kᵀ H_k (I + G_k H_k)⁻¹ A_k
//
// with A_0 = A, G_0 = B R⁻¹ Bᵀ, H_0 = Q; H converges to the stabilizing
// solution P.
func dareDoubling(a, b, q, rinv *mat.Matrix) (*mat.Matrix, error) {
	n := a.Rows()
	ak := a.Clone()
	gk := mat.MulChain(b, rinv, b.T())
	hk := q.Clone()
	for iter := 0; iter < 60; iter++ {
		igh := mat.Add(mat.Identity(n), mat.Mul(gk, hk))
		w, err := mat.Inverse(igh)
		if err != nil {
			return nil, fmt.Errorf("lti: SDA breakdown at iteration %d: %w", iter, err)
		}
		wa := mat.Mul(w, ak)
		aNext := mat.Mul(ak, wa)
		gNext := mat.Add(gk, mat.MulChain(ak, w, gk, ak.T()))
		hNext := mat.Add(hk, mat.MulChain(ak.T(), hk, wa))
		diff := mat.Sub(hNext, hk).MaxAbs()
		ak, gk, hk = aNext, mat.Symmetrize(gNext), mat.Symmetrize(hNext)
		if !hk.IsFinite() {
			return nil, errors.New("lti: SDA diverged")
		}
		if diff <= 1e-12*(1+hk.MaxAbs()) {
			return hk, nil
		}
	}
	return hk, nil
}

// dareIterate runs the Riccati difference equation to a fixed point.
func dareIterate(a, b, q, r *mat.Matrix) (*mat.Matrix, error) {
	p := q.Clone()
	for iter := 0; iter < 100000; iter++ {
		pn, err := riccatiStep(a, b, q, r, p)
		if err != nil {
			return nil, err
		}
		diff := mat.Sub(pn, p).MaxAbs()
		p = pn
		if !p.IsFinite() {
			return nil, errors.New("lti: Riccati iteration diverged")
		}
		if diff <= 1e-11*(1+p.MaxAbs()) {
			return p, nil
		}
	}
	return nil, errors.New("lti: Riccati iteration did not converge")
}

// riccatiStep computes one application of the Riccati operator.
func riccatiStep(a, b, q, r, p *mat.Matrix) (*mat.Matrix, error) {
	btpb := mat.Add(r, mat.MulChain(b.T(), p, b))
	inv, err := mat.Inverse(btpb)
	if err != nil {
		return nil, fmt.Errorf("lti: Riccati step: %w", err)
	}
	atpa := mat.MulChain(a.T(), p, a)
	atpb := mat.MulChain(a.T(), p, b)
	corr := mat.MulChain(atpb, inv, atpb.T())
	return mat.Symmetrize(mat.Add(mat.Sub(atpa, corr), q)), nil
}

// dareResidual returns the max-abs residual of the DARE at P.
func dareResidual(a, b, q, r, p *mat.Matrix) float64 {
	pn, err := riccatiStep(a, b, q, r, p)
	if err != nil {
		return 1e300
	}
	return mat.Sub(pn, p).MaxAbs()
}

// DAREGain returns the LQR feedback gain K = (R + BᵀPB)⁻¹ BᵀPA for the
// DARE solution P, so that u = -K x minimizes the infinite-horizon
// quadratic cost.
func DAREGain(a, b, r, p *mat.Matrix) (*mat.Matrix, error) {
	btpb := mat.Add(r, mat.MulChain(b.T(), p, b))
	inv, err := mat.Inverse(btpb)
	if err != nil {
		return nil, fmt.Errorf("lti: DARE gain: %w", err)
	}
	return mat.MulChain(inv, b.T(), p, a), nil
}
