package lti

import (
	"fmt"
	"math"
	"math/cmplx"

	"mimoctl/internal/mat"
)

// transferEval evaluates G(z) = C (zI - A)⁻¹ B + D repeatedly with a
// preallocated workspace: the complex copies of (A, B, C, D) are built
// once and every intermediate is reused across evaluations. A frequency
// sweep (HInfNorm walks ~600 grid and refinement points per call)
// otherwise allocates seven complex matrices per point.
//
// The workspace makes an evaluator single-goroutine; each sweep builds
// its own rather than caching one on the (shared) StateSpace.
type transferEval struct {
	ident, cA, cB, cC, cD *mat.CMatrix // fixed once built
	zi, m, lu, x, g, out  *mat.CMatrix // scratch, rewritten per eval
}

func newTransferEval(s *StateSpace) *transferEval {
	n := s.Order()
	ni := s.Inputs()
	no := s.Outputs()
	return &transferEval{
		ident: mat.CIdentity(n),
		cA:    mat.CFromReal(s.A),
		cB:    mat.CFromReal(s.B),
		cC:    mat.CFromReal(s.C),
		cD:    mat.CFromReal(s.D),
		zi:    mat.CNew(n, n),
		m:     mat.CNew(n, n),
		lu:    mat.CNew(n, n),
		x:     mat.CNew(n, ni),
		g:     mat.CNew(no, ni),
		out:   mat.CNew(no, ni),
	}
}

// eval returns G(z). The result is workspace-owned: it is valid until
// the next eval call, and callers that retain it must clone it.
func (e *transferEval) eval(z complex128) (*mat.CMatrix, error) {
	mat.CScaleInto(e.zi, z, e.ident)
	mat.CSubInto(e.m, e.zi, e.cA)
	if err := mat.CSolveInto(e.x, e.lu, e.m, e.cB); err != nil {
		return nil, fmt.Errorf("lti: transfer evaluation at z=%v: %w", z, err)
	}
	mat.CMulInto(e.g, e.cC, e.x)
	return mat.CAddInto(e.out, e.g, e.cD), nil
}

// HInfNorm estimates the H∞ norm of a stable discrete system: the peak
// over frequency of the largest singular value of G(e^(jωTs)). It
// evaluates nGrid log-spaced points over (0, π/Ts] plus ω = 0, then
// refines around the peak with golden-section search. nGrid <= 0 selects
// a default of 256.
func (s *StateSpace) HInfNorm(nGrid int) (norm, peakOmega float64, err error) {
	if nGrid <= 0 {
		nGrid = 256
	}
	nyquist := math.Pi / s.Ts
	// One workspace for the whole sweep.
	ev := newTransferEval(s)
	eval := func(w float64) (float64, error) {
		g, err := ev.eval(cmplx.Exp(complex(0, w*s.Ts)))
		if err != nil {
			return 0, err
		}
		return mat.CNorm2(g), nil
	}
	best, bestW := 0.0, 0.0
	// ω = 0 (DC) first; guard against a pole exactly at z = 1.
	if v, err := eval(0); err == nil && v > best {
		best, bestW = v, 0
	}
	// Log-spaced grid from nyquist*1e-5 to nyquist.
	lo, hi := math.Log(nyquist*1e-5), math.Log(nyquist)
	for i := 0; i < nGrid; i++ {
		w := math.Exp(lo + (hi-lo)*float64(i)/float64(nGrid-1))
		v, err := eval(w)
		if err != nil {
			continue
		}
		if v > best {
			best, bestW = v, w
		}
	}
	if best == 0 {
		return 0, 0, fmt.Errorf("lti: H∞ estimation failed at every grid point")
	}
	// Golden-section refinement around the peak.
	a := bestW / 2
	b := bestW * 2
	if b > nyquist {
		b = nyquist
	}
	if bestW == 0 {
		a, b = 0, nyquist*1e-4
	}
	const phi = 0.6180339887498949
	for iter := 0; iter < 40 && b-a > 1e-9*nyquist; iter++ {
		c := b - phi*(b-a)
		d := a + phi*(b-a)
		fc, errC := eval(c)
		fd, errD := eval(d)
		if errC != nil || errD != nil {
			break
		}
		if fc > fd {
			b = d
		} else {
			a = c
		}
	}
	mid := 0.5 * (a + b)
	if v, err := eval(mid); err == nil && v > best {
		best, bestW = v, mid
	}
	return best, bestW, nil
}
