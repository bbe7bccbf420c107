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
// The lockstep differentials and FuzzStepVsReference compare every
// returned input and every state word by math.Float64bits.

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
	if g.fleet {
		c.step4x2(y)
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
		saturated := false
		if g.antiWindup {
			var nrm float64
			for _, v := range c.lastExcess {
				nrm += v * v
			}
			saturated = nrm > satThreshold
		}
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

// step4x2 is Step for the fleets' shape — order 4, inputs [frequency,
// cache ways], outputs [IPS, power], ΔU + integral — unrolled with
// every dimension a constant. Each statement is the generic path's
// arithmetic in the generic path's order.
func (c *Controller) step4x2(y []float64) {
	g := c.g
	m1 := negOne
	A := g.a[:16:16]
	B := g.b[:8:8] // 4×2
	C := g.c[:8:8]
	lc := g.lc[:8:8]
	kx := g.kx[:8:8] // 2×4
	ku := g.ku[:4:4]
	kz := g.kz[:4:4]
	xhat := c.xhat[:4:4]
	xss := c.xss[:4:4]
	uPrev := c.uPrev[:2:2]
	uss := c.uss[:2:2]
	lastExcess := c.lastExcess[:2:2]
	zInt := c.zInt[:2:2]
	ref := c.ref[:2:2]
	lastInnov := c.lastInnov[:2:2]
	y0, y1 := y[0], y[1]

	// Measurement update: innov = y - C·x̂, x̂ᶜ = x̂ + Lc·innov.
	var cy0, cy1 float64
	cy0 -= C[0] * xhat[0]
	cy0 -= C[1] * xhat[1]
	cy0 -= C[2] * xhat[2]
	cy0 -= C[3] * xhat[3]
	cy1 -= C[4] * xhat[0]
	cy1 -= C[5] * xhat[1]
	cy1 -= C[6] * xhat[2]
	cy1 -= C[7] * xhat[3]
	in0 := y0 - cy0
	in1 := y1 - cy1
	lastInnov[0], lastInnov[1] = in0, in1
	var l0, l1, l2, l3 float64
	l0 -= lc[0] * in0
	l0 -= lc[1] * in1
	l1 -= lc[2] * in0
	l1 -= lc[3] * in1
	l2 -= lc[4] * in0
	l2 -= lc[5] * in1
	l3 -= lc[6] * in0
	l3 -= lc[7] * in1
	xc0 := xhat[0] - m1*l0
	xc1 := xhat[1] - m1*l1
	xc2 := xhat[2] - m1*l2
	xc3 := xhat[3] - m1*l3

	// ΔU feedback: v = -Kx·(xᶜ-x_ss) - Ku·(u_prev-u_ss) - Kz·z.
	dx0 := xc0 - xss[0]
	dx1 := xc1 - xss[1]
	dx2 := xc2 - xss[2]
	dx3 := xc3 - xss[3]
	du0 := uPrev[0] - uss[0]
	du1 := uPrev[1] - uss[1]
	var u0, u1 float64
	{
		var kv float64
		kv -= kx[0] * dx0
		kv -= kx[1] * dx1
		kv -= kx[2] * dx2
		kv -= kx[3] * dx3
		v := m1 * kv
		var kv2 float64
		kv2 -= ku[0] * du0
		kv2 -= ku[1] * du1
		v -= kv2
		var kv3 float64
		kv3 -= kz[0] * zInt[0]
		kv3 -= kz[1] * zInt[1]
		v -= kv3
		u0 = uPrev[0] - m1*v
	}
	{
		var kv float64
		kv -= kx[4] * dx0
		kv -= kx[5] * dx1
		kv -= kx[6] * dx2
		kv -= kx[7] * dx3
		v := m1 * kv
		var kv2 float64
		kv2 -= ku[2] * du0
		kv2 -= ku[3] * du1
		v -= kv2
		var kv3 float64
		kv3 -= kz[2] * zInt[0]
		kv3 -= kz[3] * zInt[1]
		v -= kv3
		u1 = uPrev[1] - m1*v
	}

	// Conditional-integration anti-windup.
	var nrm float64
	nrm += lastExcess[0] * lastExcess[0]
	nrm += lastExcess[1] * lastExcess[1]
	saturated := g.antiWindup && nrm > satThreshold
	if e := ref[0] - y0; !saturated || e == 0 || !(kz[0]*e*lastExcess[0]+kz[2]*e*lastExcess[1] > 0) {
		zInt[0] = e - m1*zInt[0]
	}
	if e := ref[1] - y1; !saturated || e == 0 || !(kz[1]*e*lastExcess[0]+kz[3]*e*lastExcess[1] > 0) {
		zInt[1] = e - m1*zInt[1]
	}

	// Time update: x̂ = A·xᶜ + B·u.
	for i := 0; i < 4; i++ {
		a := A[4*i : 4*i+4 : 4*i+4]
		var ax float64
		ax -= a[0] * xc0
		ax -= a[1] * xc1
		ax -= a[2] * xc2
		ax -= a[3] * xc3
		var bu float64
		bu -= B[2*i] * u0
		bu -= B[2*i+1] * u1
		xhat[i] = ax - m1*bu
	}
	u := c.u[:2:2]
	u[0], u[1] = u0, u1
	uPrev[0], uPrev[1] = u0, u1
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
	if g.fleet {
		c.observe4x2(u)
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

// observe4x2 is ObserveApplied for the fleets' shape, unrolled like
// step4x2.
func (c *Controller) observe4x2(u []float64) {
	m1 := negOne
	B := c.g.b[:8:8]
	xhat := c.xhat[:4:4]
	uPrev := c.uPrev[:2:2]
	u0, u1 := u[0], u[1]
	d0 := u0 - uPrev[0]
	d1 := u1 - uPrev[1]
	for i := 0; i < 4; i++ {
		var bd float64
		bd -= B[2*i] * d0
		bd -= B[2*i+1] * d1
		xhat[i] -= m1 * bd
	}
	lastExcess := c.lastExcess[:2:2]
	lastExcess[0], lastExcess[1] = m1*d0, m1*d1
	uPrev[0], uPrev[1] = u0, u1
}
