package lqg

import (
	"fmt"
	"math"
)

// The runtime step. Every loop in the repository runs these two
// methods: the paper experiments, the fleets (internal/batch steps the
// same supervised loops) and adaptation's redesigns. They read the flat
// copies of the design matrices and make no mat call.
//
// They reproduce the mat-based step they replaced (kept verbatim in
// reference_test.go) bit for bit, NaN payloads and signed zeros
// included. Float addition is commutative in value but not in which
// NaN it returns: when both operands are NaN, an SSE add returns its
// first operand's, and for a commutative add the compiler picks which
// operand comes first. The step therefore never adds:
//
//   - a product row·x is accumulated as mat.MulVecInto does, one term
//     at a time from s = 0 in index order, but as s - (-m)·x over rows
//     stored negated. Negation and a product's sign are exact, so the
//     value is s + m·x; the subtraction keeps s first, as the mat loop
//     does;
//   - every other sum x + y is x - negOne·y, which keeps x first, where
//     the reference's compiled code does;
//   - the reference's multiplies by -1 (scaleInto) stay
//     multiplies by negOne, a variable: a constant -1 compiles to a sign
//     flip, which differs from the multiply on the sign of a NaN;
//   - the anti-windup test math.Sqrt(‖excess‖²) > 1e-12 is the compare
//     ‖excess‖² > satThreshold, the same predicate for every input.
//
// Every shape a program steps runs an unrolled kernel instead of these
// loops: kernels.go holds one Step and one ObserveApplied per entry of
// the shape table in kernels_test.go, generated from a template whose
// every statement is the arithmetic below, in the order below, over
// constant indices. Any other shape runs the loops, which stay the
// semantics the template mirrors.
//
// The lockstep differentials and FuzzStepVsReference compare every
// returned input and every state word by math.Float64bits, and the
// filtered estimate x̂ᶜ after every Step, on the kernels and the loops.

// negOne is -1 as a value the compiler cannot fold into a negation.
var negOne = -1.0

// satThreshold is the largest float64 x with math.Sqrt(x) <= 1e-12,
// found once by bisection over the bit patterns. Hardware sqrt is
// correctly rounded and therefore monotone non-decreasing, so
// math.Sqrt(nrm) > 1e-12 is exactly nrm > satThreshold for every input,
// NaN and +Inf included (both comparisons are false for NaN). The
// compare keeps the sqrt off the hot path; TestSatThresholdMatchesSqrt
// pins the equivalence around the boundary.
var satThreshold = func() float64 {
	lo, hi := math.Float64bits(0), math.Float64bits(1e-23)
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if math.Sqrt(math.Float64frombits(mid)) <= 1e-12 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}()

// mulRow is one row of mat.MulVecInto over a row stored negated.
func mulRow(negRow, x []float64) float64 {
	var s float64
	for j, m := range negRow {
		s -= m * x[j]
	}
	return s
}

// Step consumes the latest measured output y (deviation coordinates) and
// returns the input to apply for the next interval (deviation
// coordinates). It performs: Kalman measurement update, integrator
// update, LQR feedback, and Kalman time update.
//
// The returned slice is owned by the controller: it stays valid (and
// unmodified) only until the next Step, Reset, or Clone. Callers that
// retain it across steps must copy it first. Step performs no heap
// allocation.
func (c *Controller) Step(y []float64) ([]float64, error) {
	g := c.g
	if len(y) != g.no {
		return nil, fmt.Errorf("lqg: output has %d entries, want %d", len(y), g.no)
	}
	if k := g.kernel.step; k != nil {
		k(c, y)
		return c.u, nil
	}
	n, ni, no := g.n, g.ni, g.no
	m1 := negOne
	xhat, xc, u := c.xhat, c.xc, c.u
	// Measurement update: x̂ᶜ = x̂ + Lc (y - C x̂).
	for i := 0; i < no; i++ {
		c.lastInnov[i] = y[i] - mulRow(g.c[i*n:(i+1)*n], xhat)
	}
	for i := 0; i < n; i++ {
		xc[i] = xhat[i] - m1*mulRow(g.lc[i*no:(i+1)*no], c.lastInnov)
	}
	// Feedback v = -K x̃ with x̃ = [δx; δu_prev; z] (pre-update z, as in
	// the design dynamics; the DARE gain fixes all signs).
	for j := range xc {
		c.dx[j] = xc[j] - c.xss[j]
	}
	if g.deltaU {
		for j := range c.du {
			c.du[j] = c.uPrev[j] - c.uss[j]
		}
		for i := 0; i < ni; i++ {
			v := m1 * mulRow(g.kx[i*n:(i+1)*n], c.dx)
			v -= mulRow(g.ku[i*ni:(i+1)*ni], c.du)
			if g.integral {
				v -= mulRow(g.kz[i*no:(i+1)*no], c.zInt)
			}
			u[i] = c.uPrev[i] - m1*v
		}
	} else {
		for i := 0; i < ni; i++ {
			v := c.uss[i] - mulRow(g.kx[i*n:(i+1)*n], c.dx)
			if g.integral {
				v -= mulRow(g.kz[i*no:(i+1)*no], c.zInt)
			}
			u[i] = v
		}
	}
	// Integrator update: z += (r - y), matching z⁺ = z - C δx.
	// Conditional-integration anti-windup: if the last actuation was
	// clipped (lastExcess != 0), an error whose integration would push
	// the inputs further into the unrealizable direction is skipped
	// this step; errors pulling back toward feasibility still integrate.
	if g.integral {
		var nrm float64
		for _, v := range c.lastExcess {
			nrm += v * v
		}
		saturated := nrm > satThreshold
		for i := 0; i < no; i++ {
			e := c.ref[i] - y[i]
			if saturated && e != 0 {
				// Input move this error's integrator commands: -Kz[:,i]·e
				// (g.kz is stored negated).
				push := 0.0
				for j := 0; j < ni; j++ {
					push += g.kz[j*no+i] * e * c.lastExcess[j]
				}
				if push > 0 {
					continue
				}
			}
			c.zInt[i] = e - m1*c.zInt[i]
		}
	}
	// Time update with the input we are about to apply.
	for i := 0; i < n; i++ {
		xhat[i] = mulRow(g.a[i*n:(i+1)*n], xc) - m1*mulRow(g.b[i*ni:(i+1)*ni], u)
	}
	copy(c.uPrev, u)
	return u, nil
}

// ObserveApplied informs the controller of the input actually applied
// when an actuator modified (e.g. quantized or range-limited) the
// requested input. It re-runs the time update with the corrected input
// and records the unrealizable part of the request, which arms the
// conditional-integration anti-windup of the next Step: an unreachable
// reference cannot wind the integrators up without bound and slam the
// actuators into the wrong corner.
func (c *Controller) ObserveApplied(u []float64) error {
	g := c.g
	if len(u) != g.ni {
		return fmt.Errorf("lqg: applied input has %d entries, want %d", len(u), g.ni)
	}
	if k := g.kernel.observe; k != nil {
		k(c, u)
		return nil
	}
	m1 := negOne
	// Undo the optimistic time update and redo with the actual input:
	// x̂ was A x̂ᶜ + B u_req; replace the B u term.
	for j, v := range u {
		c.diff[j] = v - c.uPrev[j]
	}
	for i := 0; i < g.n; i++ {
		c.xhat[i] -= m1 * mulRow(g.b[i*g.ni:(i+1)*g.ni], c.diff)
	}
	for j, d := range c.diff {
		c.lastExcess[j] = m1 * d // u_requested - u_applied
	}
	copy(c.uPrev, u)
	return nil
}
