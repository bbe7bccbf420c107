// Package lti implements discrete-time linear time-invariant (LTI)
// state-space systems and the matrix equation used in controller design:
// simulation, stability, DC gain, the H∞ norm over the frequency
// response, and the discrete algebraic Riccati equation (DARE).
//
// A system is
//
//	x(t+1) = A x(t) + B u(t)
//	y(t)   = C x(t) + D u(t)
//
// as in equations (1)-(2) of Pothukuchi et al., ISCA 2016.
package lti

import (
	"errors"
	"fmt"

	"mimoctl/internal/mat"
)

// StateSpace is a discrete-time LTI system. Ts is the sample period in
// seconds (purely informational; the dynamics are per-step).
type StateSpace struct {
	A, B, C, D *mat.Matrix
	Ts         float64
}

// NewStateSpace validates matrix dimensions and returns the system.
// D may be nil, in which case a zero feed-through matrix is used.
func NewStateSpace(a, b, c, d *mat.Matrix, ts float64) (*StateSpace, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("lti: A must be square, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	if b.Rows() != n {
		return nil, fmt.Errorf("lti: B has %d rows, want %d", b.Rows(), n)
	}
	if c.Cols() != n {
		return nil, fmt.Errorf("lti: C has %d cols, want %d", c.Cols(), n)
	}
	if d == nil {
		d = mat.New(c.Rows(), b.Cols())
	}
	if d.Rows() != c.Rows() || d.Cols() != b.Cols() {
		return nil, fmt.Errorf("lti: D is %dx%d, want %dx%d", d.Rows(), d.Cols(), c.Rows(), b.Cols())
	}
	if ts <= 0 {
		return nil, errors.New("lti: sample period must be positive")
	}
	return &StateSpace{A: a, B: b, C: c, D: d, Ts: ts}, nil
}

// MustStateSpace is NewStateSpace that panics on error; for literals in
// tests and examples.
func MustStateSpace(a, b, c, d *mat.Matrix, ts float64) *StateSpace {
	ss, err := NewStateSpace(a, b, c, d, ts)
	if err != nil {
		panic(err)
	}
	return ss
}

// Order returns the state dimension N.
func (s *StateSpace) Order() int { return s.A.Rows() }

// Inputs returns the input dimension I.
func (s *StateSpace) Inputs() int { return s.B.Cols() }

// Outputs returns the output dimension O.
func (s *StateSpace) Outputs() int { return s.C.Rows() }

// Simulate runs the system from initial state x0 over the input sequence
// u (one row per sample, Inputs() columns) and returns the output sequence
// (one row per sample, Outputs() columns).
func (s *StateSpace) Simulate(x0 []float64, u *mat.Matrix) (*mat.Matrix, error) {
	if u.Cols() != s.Inputs() {
		return nil, fmt.Errorf("lti: input sequence has %d cols, want %d", u.Cols(), s.Inputs())
	}
	if len(x0) != s.Order() {
		return nil, fmt.Errorf("lti: x0 has length %d, want %d", len(x0), s.Order())
	}
	t := u.Rows()
	y := mat.New(t, s.Outputs())
	x := append([]float64(nil), x0...)
	// Scratch for the four products, reused every sample: y = C x + D u,
	// then x = A x + B u, with no per-sample slices.
	cx, du := make([]float64, s.Outputs()), make([]float64, s.Outputs())
	ax, bu := make([]float64, s.Order()), make([]float64, s.Order())
	for k := 0; k < t; k++ {
		uk := u.RowView(k)
		mat.VecAddInto(y.RowView(k), mat.MulVecInto(cx, s.C, x), mat.MulVecInto(du, s.D, uk))
		mat.VecAddInto(x, mat.MulVecInto(ax, s.A, x), mat.MulVecInto(bu, s.B, uk))
	}
	return y, nil
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
