package lqg

import (
	"fmt"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// The reference runtime: the mat-based Reset, SetReference, Step and
// ObserveApplied the flat step replaced, over the controller's design
// matrices. The differential tests run it in lockstep with the
// controller and compare every returned input and state word by bit
// pattern, so these bodies are not to be edited. A refController shares
// its controller's design; its runtime state is its own.

type refController struct {
	plant *lti.StateSpace
	opts  Options

	kx, ku, kz *mat.Matrix
	lc         *mat.Matrix
	targetGain *mat.Matrix

	xhat       []float64
	uPrev      []float64
	zInt       []float64
	lastExcess []float64
	lastInnov  []float64
	ref        []float64
	xss        []float64
	uss        []float64

	ws *stepWorkspace
}

// newRef returns a reference runtime over c's design, starting from a
// copy of c's runtime state.
// scaleInto stores s*x into dst and returns dst: the reference's
// multiplies by -1. It stays out of line so that s is a multiply: a
// constant -1 compiles to a sign flip, which differs on the sign of a
// NaN.
//
//go:noinline
func scaleInto(dst []float64, s float64, x []float64) []float64 {
	for i, v := range x {
		dst[i] = s * v
	}
	return dst
}

func newRef(c *Controller) *refController {
	r := &refController{
		plant: c.plant, opts: c.opts,
		kx: c.kx, ku: c.ku, kz: c.kz, lc: c.lc, targetGain: c.targetGain,
		xhat:       append([]float64(nil), c.xhat...),
		uPrev:      append([]float64(nil), c.uPrev...),
		zInt:       append([]float64(nil), c.zInt...),
		lastExcess: append([]float64(nil), c.lastExcess...),
		lastInnov:  append([]float64(nil), c.lastInnov...),
		ref:        append([]float64(nil), c.ref...),
		xss:        append([]float64(nil), c.xss...),
		uss:        append([]float64(nil), c.uss...),
	}
	r.ws = newStepWorkspace(c.plant)
	return r
}

// stepWorkspace is the scratch storage for Step, ObserveApplied, and
// SetReference. Every vector is preallocated to the plant's dimensions
// at Reset/Clone time; no runtime method allocates after that. A
// workspace belongs to exactly one controller — Clone installs a fresh
// one so clones can step concurrently.
type stepWorkspace struct {
	cy      []float64 // C·x̂                     (outputs)
	lcv     []float64 // Lc·innov                 (order)
	xc      []float64 // filtered state estimate  (order)
	dx      []float64 // xc - xss                 (order)
	du      []float64 // uPrev - uss              (inputs)
	kv      []float64 // gain-times-vector        (inputs)
	v       []float64 // Δu feedback              (inputs)
	u       []float64 // issued input             (inputs)
	ax      []float64 // A·xc                     (order)
	bu      []float64 // B·u                      (order)
	obsDiff []float64 // applied - requested      (inputs)
	bdiff   []float64 // B·obsDiff                (order)
	tgt     []float64 // targetGain·r             (order+inputs)
}

func newStepWorkspace(p *lti.StateSpace) *stepWorkspace {
	n, ni, no := p.Order(), p.Inputs(), p.Outputs()
	return &stepWorkspace{
		cy:      make([]float64, no),
		lcv:     make([]float64, n),
		xc:      make([]float64, n),
		dx:      make([]float64, n),
		du:      make([]float64, ni),
		kv:      make([]float64, ni),
		v:       make([]float64, ni),
		u:       make([]float64, ni),
		ax:      make([]float64, n),
		bu:      make([]float64, n),
		obsDiff: make([]float64, ni),
		bdiff:   make([]float64, n),
		tgt:     make([]float64, n+ni),
	}
}

// zeroed returns s resized to length n with every entry zero, reusing
// the backing array when it is large enough.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Reset clears the runtime state (estimate, integrators, previous input)
// and the reference, reusing the existing buffers when their capacity
// allows.
func (c *refController) Reset() {
	p := c.plant
	c.xhat = zeroed(c.xhat, p.Order())
	c.uPrev = zeroed(c.uPrev, p.Inputs())
	c.zInt = zeroed(c.zInt, p.Outputs())
	c.lastExcess = zeroed(c.lastExcess, p.Inputs())
	c.lastInnov = zeroed(c.lastInnov, p.Outputs())
	c.ref = zeroed(c.ref, p.Outputs())
	c.xss = zeroed(c.xss, p.Order())
	c.uss = zeroed(c.uss, p.Inputs())
	if c.ws == nil {
		c.ws = newStepWorkspace(p)
	}
}

// SetReference updates the output targets (in the model's deviation
// coordinates) and recomputes the steady-state targets.
func (c *refController) SetReference(r []float64) error {
	if len(r) != c.plant.Outputs() {
		return fmt.Errorf("lqg: reference has %d entries, want %d", len(r), c.plant.Outputs())
	}
	c.ref = append(c.ref[:0], r...)
	t := mat.MulVecInto(c.ws.tgt, c.targetGain, r)
	n := c.plant.Order()
	c.xss = append(c.xss[:0], t[:n]...)
	c.uss = append(c.uss[:0], t[n:]...)
	return nil
}

// Step consumes the latest measured output y (deviation coordinates) and
// returns the input to apply for the next interval (deviation
// coordinates). It performs: Kalman measurement update, integrator
// update, LQR feedback, and Kalman time update.
//
// The returned slice is owned by the controller's workspace: it stays
// valid (and unmodified) only until the next Step, Reset, or Clone.
// Callers that retain it across steps must copy it first. Step
// performs no heap allocation.
func (c *refController) Step(y []float64) ([]float64, error) {
	p := c.plant
	if len(y) != p.Outputs() {
		return nil, fmt.Errorf("lqg: output has %d entries, want %d", len(y), p.Outputs())
	}
	w := c.ws
	// Measurement update: x̂ᶜ = x̂ + Lc (y - C x̂).
	mat.MulVecInto(w.cy, p.C, c.xhat)
	innov := mat.VecSubInto(c.lastInnov, y, w.cy)
	xc := mat.VecAddInto(w.xc, c.xhat, mat.MulVecInto(w.lcv, c.lc, innov))
	// Feedback v = -K x̃ with x̃ = [δx; δu_prev; z] (pre-update z, as in
	// the design dynamics; the DARE gain fixes all signs).
	u := w.u
	dx := mat.VecSubInto(w.dx, xc, c.xss)
	if c.opts.DeltaU {
		du := mat.VecSubInto(w.du, c.uPrev, c.uss)
		v := scaleInto(w.v, -1, mat.MulVecInto(w.kv, c.kx, dx))
		mat.VecSubInto(v, v, mat.MulVecInto(w.kv, c.ku, du))
		if c.opts.Integral {
			mat.VecSubInto(v, v, mat.MulVecInto(w.kv, c.kz, c.zInt))
		}
		mat.VecAddInto(u, c.uPrev, v)
	} else {
		mat.VecSubInto(u, c.uss, mat.MulVecInto(w.kv, c.kx, dx))
		if c.opts.Integral {
			mat.VecSubInto(u, u, mat.MulVecInto(w.kv, c.kz, c.zInt))
		}
	}
	// Integrator update: z += (r - y), matching z⁺ = z - C δx.
	// Conditional-integration anti-windup: if the last actuation was
	// clipped (lastExcess != 0), an error whose integration would push
	// the inputs further into the unrealizable direction is skipped
	// this step; errors pulling back toward feasibility still integrate.
	if c.opts.Integral {
		saturated := mat.VecNorm2(c.lastExcess) > 1e-12
		for i := range c.zInt {
			e := c.ref[i] - y[i]
			if saturated && e != 0 {
				// Input move this error's integrator commands: -Kz[:,i]·e.
				push := 0.0
				for j := 0; j < p.Inputs(); j++ {
					push += -c.kz.At(j, i) * e * c.lastExcess[j]
				}
				if push > 0 {
					continue
				}
			}
			c.zInt[i] += e
		}
	}
	// Time update with the input we are about to apply.
	mat.MulVecInto(w.ax, p.A, xc)
	mat.MulVecInto(w.bu, p.B, u)
	mat.VecAddInto(c.xhat, w.ax, w.bu)
	copy(c.uPrev, u)
	return u, nil
}

// ObserveApplied informs the controller of the input actually applied
// when an actuator modified (e.g. quantized or range-limited) the
// requested input. It re-runs the time update with the corrected input
// and applies back-calculation anti-windup: the integrators are unwound
// in proportion to the unrealizable part of the request, so an
// unreachable reference cannot wind them up without bound and slam the
// actuators into the wrong corner.
func (c *refController) ObserveApplied(u []float64) error {
	p := c.plant
	if len(u) != p.Inputs() {
		return fmt.Errorf("lqg: applied input has %d entries, want %d", len(u), p.Inputs())
	}
	// Undo the optimistic time update and redo with the actual input:
	// x̂ was A x̂ᶜ + B u_req; replace the B u term.
	w := c.ws
	diff := mat.VecSubInto(w.obsDiff, u, c.uPrev)
	mat.VecAddInto(c.xhat, c.xhat, mat.MulVecInto(w.bdiff, p.B, diff))
	scaleInto(c.lastExcess, -1, diff) // u_requested - u_applied
	copy(c.uPrev, u)
	return nil
}
