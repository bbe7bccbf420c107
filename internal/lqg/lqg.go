// Package lqg designs and runs Linear Quadratic Gaussian servo
// controllers, the controller family the paper uses for MIMO
// architectural control (§III-A).
//
// The controller combines
//
//   - a steady-state Kalman filter that estimates the plant state from
//     noisy outputs ("the controller begins with a state estimate and
//     ... refines the estimate"), and
//   - an LQR state-feedback gain designed on a Δu-augmented plant, so the
//     quadratic cost penalizes *changes* of each input ("the controller
//     minimizes input changes to avoid quick jerks from steady state")
//     as well as output tracking errors, weighted by the designer's Q
//     and R matrices,
//
// plus optional integral action for offset-free tracking under model
// mismatch, and reference target calculation (x_ss, u_ss) for arbitrary
// output references.
//
// The plant model must have no direct feed-through (D = 0): the
// controller reads y(t), which was produced by previously applied
// inputs, and then chooses the next input.
package lqg

import (
	"errors"
	"fmt"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// Weights holds the designer's cost weights (paper §IV-B2).
// OutputWeights is the diagonal of the Tracking Error Cost matrix Q (one
// entry per output); InputWeights is the diagonal of the Control Effort
// Cost matrix R (one entry per input). Only relative magnitudes matter.
type Weights struct {
	OutputWeights []float64
	InputWeights  []float64
}

// Options selects the controller structure.
type Options struct {
	// DeltaU penalizes input increments rather than absolute input
	// deviations. This is the paper's formulation; disabling it is
	// provided for ablation studies.
	DeltaU bool
	// Integral adds integrator states on the tracking errors so constant
	// model mismatch cannot leave a steady-state offset.
	Integral bool
	// DisableAntiWindup turns off conditional integration. By default,
	// when the actuator cannot realize the requested input (quantization
	// or range saturation, reported via ObserveApplied), any integrator
	// whose error pushes the inputs further into the unrealizable
	// direction is frozen for that step, while integrators pulling back
	// toward the feasible region keep working. Without this, an
	// unreachable reference winds the integrators up without bound and
	// the actuators slam into a corner.
	DisableAntiWindup bool
}

// integralWeight scales the cost on the integrator states relative to
// the corresponding output's tracking weight: integrator i gets weight
// integralWeight x OutputWeights[i], so a heavily weighted output also
// gets the stronger integrator. stateCostEpsilon regularizes the
// augmented state cost to keep the DARE well posed.
const (
	integralWeight   float64 = 1e-3
	stateCostEpsilon float64 = 1e-9
)

// Noise describes the identified unpredictability of the plant: W is the
// process-noise covariance (state dim), V the measurement-noise
// covariance (output dim). Paper §IV-B3.
type Noise struct {
	W, V *mat.Matrix
}

// Controller is a deployed LQG servo controller. It is a pure
// discrete-time computation: each Step performs a handful of
// matrix-vector products, matching the paper's "four floating-point
// vector-matrix multiplies" runtime cost.
type Controller struct {
	plant *lti.StateSpace
	opts  Options

	// Design results, kept as matrices for analysis (AsStateSpace). The
	// runtime reads their flat copies in g.
	kx, ku, kz *mat.Matrix // LQR gain partitions
	lc         *mat.Matrix // Kalman filter gain (filtered form)
	qy, rCost  *mat.Matrix // designer cost matrices (diagonal)

	// Target calculator: [x_ss; u_ss] = targetGain * r.
	targetGain *mat.Matrix

	// g is what Step, ObserveApplied and SetReference read: the plant
	// and gain matrices as flat row-major copies. Immutable after
	// Design, so clones share it.
	g *flatGains

	// Runtime state and step scratch: views into the one block rt, so
	// a step touches one contiguous allocation.
	rt         []float64
	xhat       []float64 // one-step-ahead state estimate
	uPrev      []float64 // last issued input (deviation coordinates)
	zInt       []float64 // integrator states
	lastExcess []float64 // u_requested - u_applied from the last actuation
	lastInnov  []float64 // innovation y - C x̂ from the last Step
	ref        []float64 // current output reference (deviation coordinates)
	xss        []float64
	uss        []float64
	xc         []float64 // filtered state estimate x̂ᶜ (order)
	dx         []float64 // x̂ᶜ - x_ss (order)
	du         []float64 // u_prev - u_ss (inputs)
	diff       []float64 // applied - requested (inputs)
	u          []float64 // issued input, returned by Step (inputs)
}

// flatGains holds the runtime's matrices, row-major and negated (see
// mulRow), and the structure flags the step branches on.
type flatGains struct {
	n, ni, no int
	a, b, c   []float64 // plant: n×n, n×ni, no×n
	lc        []float64 // Kalman gain: n×no
	kx        []float64 // ni×n
	ku        []float64 // ni×ni (DeltaU only)
	kz        []float64 // ni×no (Integral only)
	tg        []float64 // target calculator: (n+ni)×no

	deltaU, integral, antiWindup bool
	// fleet marks the fleets' shape (order 4, two inputs, two outputs,
	// ΔU + integral), which Step runs through the unrolled step4x2.
	fleet bool
}

func newFlatGains(c *Controller) *flatGains {
	p := c.plant
	flat := func(m *mat.Matrix) []float64 {
		if m == nil {
			return nil
		}
		neg := make([]float64, len(m.RawData()))
		for i, v := range m.RawData() {
			neg[i] = -v
		}
		return neg
	}
	g := &flatGains{
		n: p.Order(), ni: p.Inputs(), no: p.Outputs(),
		a: flat(p.A), b: flat(p.B), c: flat(p.C),
		lc: flat(c.lc), kx: flat(c.kx), ku: flat(c.ku), kz: flat(c.kz),
		tg:         flat(c.targetGain),
		deltaU:     c.opts.DeltaU,
		integral:   c.opts.Integral,
		antiWindup: !c.opts.DisableAntiWindup,
	}
	g.fleet = g.n == 4 && g.ni == 2 && g.no == 2 && g.deltaU && g.integral
	return g
}

// newRuntime carves the runtime state and step scratch out of one
// zeroed allocation.
func (c *Controller) newRuntime() {
	n, ni, no := c.g.n, c.g.ni, c.g.no
	buf := make([]float64, 4*n+6*ni+3*no)
	c.rt = buf
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	c.xhat, c.xss, c.xc, c.dx = take(n), take(n), take(n), take(n)
	c.uPrev, c.lastExcess, c.uss = take(ni), take(ni), take(ni)
	c.du, c.diff, c.u = take(ni), take(ni), take(ni)
	c.zInt, c.lastInnov, c.ref = take(no), take(no), take(no)
}

// Design builds an LQG servo controller for the plant. The plant must
// have D = 0. Weights must be positive.
func Design(plant *lti.StateSpace, w Weights, noise Noise, opts Options) (*Controller, error) {
	n, ni, no := plant.Order(), plant.Inputs(), plant.Outputs()
	if plant.D.MaxAbs() != 0 {
		return nil, errors.New("lqg: plant must have no direct feed-through (D = 0)")
	}
	if no > ni {
		// Paper §III: "the number of outputs cannot be more than the
		// number of inputs".
		return nil, fmt.Errorf("lqg: %d outputs exceed %d inputs; targets are unreachable", no, ni)
	}
	if len(w.OutputWeights) != no {
		return nil, fmt.Errorf("lqg: %d output weights for %d outputs", len(w.OutputWeights), no)
	}
	if len(w.InputWeights) != ni {
		return nil, fmt.Errorf("lqg: %d input weights for %d inputs", len(w.InputWeights), ni)
	}
	for _, v := range w.OutputWeights {
		if v <= 0 {
			return nil, errors.New("lqg: output weights must be positive")
		}
	}
	for _, v := range w.InputWeights {
		if v <= 0 {
			return nil, errors.New("lqg: input weights must be positive")
		}
	}
	if noise.W == nil || noise.V == nil {
		return nil, errors.New("lqg: noise covariances are required")
	}
	if noise.W.Rows() != n || noise.W.Cols() != n {
		return nil, fmt.Errorf("lqg: W is %dx%d, want %dx%d", noise.W.Rows(), noise.W.Cols(), n, n)
	}
	if noise.V.Rows() != no || noise.V.Cols() != no {
		return nil, fmt.Errorf("lqg: V is %dx%d, want %dx%d", noise.V.Rows(), noise.V.Cols(), no, no)
	}

	c := &Controller{plant: plant, opts: opts}
	c.qy = mat.Diag(w.OutputWeights...)
	c.rCost = mat.Diag(w.InputWeights...)
	if err := c.designLQR(w); err != nil {
		return nil, err
	}
	if err := c.designKalman(noise); err != nil {
		return nil, err
	}
	if err := c.buildTargetCalculator(); err != nil {
		return nil, err
	}
	c.g = newFlatGains(c)
	c.Reset()
	return c, nil
}

// designLQR solves the augmented-plant DARE and partitions the gain.
func (c *Controller) designLQR(w Weights) error {
	p := c.plant
	n, ni, no := p.Order(), p.Inputs(), p.Outputs()
	qy := mat.Diag(w.OutputWeights...)
	r := mat.Diag(w.InputWeights...)

	// Augmented state: [δx ; δu_prev (if DeltaU) ; z (if Integral)].
	dim := n
	uOff, zOff := -1, -1
	if c.opts.DeltaU {
		uOff = dim
		dim += ni
	}
	if c.opts.Integral {
		zOff = dim
		dim += no
	}
	at := mat.New(dim, dim)
	bt := mat.New(dim, ni)
	at.SetSubmatrix(0, 0, p.A)
	if c.opts.DeltaU {
		// δx⁺ = A δx + B δu_prev + B v ; δu_prev⁺ = δu_prev + v.
		at.SetSubmatrix(0, uOff, p.B)
		at.SetSubmatrix(uOff, uOff, mat.Identity(ni))
		bt.SetSubmatrix(0, 0, p.B)
		bt.SetSubmatrix(uOff, 0, mat.Identity(ni))
	} else {
		// δx⁺ = A δx + B u.
		bt.SetSubmatrix(0, 0, p.B)
	}
	if c.opts.Integral {
		// z⁺ = z - C δx (deviation coordinates; e = y - r = C δx).
		at.SetSubmatrix(zOff, 0, mat.Scale(-1, p.C))
		at.SetSubmatrix(zOff, zOff, mat.Identity(no))
	}
	// State cost: Cᵀ Qy C on δx, integralWeight on z, ε elsewhere.
	qt := mat.Scale(stateCostEpsilon, mat.Identity(dim))
	qt.SetSubmatrix(0, 0, mat.Add(qt.Slice(0, n, 0, n), mat.MulChain(p.C.T(), qy, p.C)))
	if c.opts.Integral {
		for i := 0; i < no; i++ {
			qt.Set(zOff+i, zOff+i, qt.At(zOff+i, zOff+i)+integralWeight*w.OutputWeights[i])
		}
	}
	sol, err := lti.SolveDARE(at, bt, qt, r)
	if err != nil {
		return fmt.Errorf("lqg: LQR design: %w", err)
	}
	k, err := lti.DAREGain(at, bt, r, sol)
	if err != nil {
		return fmt.Errorf("lqg: LQR gain: %w", err)
	}
	c.kx = k.Slice(0, ni, 0, n)
	if c.opts.DeltaU {
		c.ku = k.Slice(0, ni, uOff, uOff+ni)
	}
	if c.opts.Integral {
		c.kz = k.Slice(0, ni, zOff, zOff+no)
	}
	return nil
}

// designKalman solves the dual DARE for the steady-state filter gain.
func (c *Controller) designKalman(noise Noise) error {
	p := c.plant
	n := p.Order()
	// Regularize a possibly singular W so the estimator DARE is solvable.
	w := mat.Add(mat.Symmetrize(noise.W), mat.Scale(1e-12+1e-9*noise.W.MaxAbs(), mat.Identity(n)))
	v := mat.Symmetrize(noise.V)
	sol, err := lti.SolveDARE(p.A.T(), p.C.T(), w, v)
	if err != nil {
		return fmt.Errorf("lqg: Kalman design: %w", err)
	}
	// Filtered-form gain Lc = P Cᵀ (C P Cᵀ + V)⁻¹.
	s := mat.Add(mat.MulChain(p.C, sol, p.C.T()), v)
	sinv, err := mat.Inverse(s)
	if err != nil {
		return fmt.Errorf("lqg: Kalman innovation covariance singular: %w", err)
	}
	c.lc = mat.MulChain(sol, p.C.T(), sinv)
	return nil
}

// buildTargetCalculator precomputes the steady-state target map
// r -> (x_ss, u_ss). The equilibrium constraint x = A x + B u is imposed
// exactly (x = (I-A)⁻¹ B u), while the output-matching condition
// C x = r is solved in a weighted least-squares sense:
//
//	u_ss = (Gᵀ Q G + R)⁻¹ Gᵀ Q r,   G = C (I-A)⁻¹ B
//
// Using the designer's own Q and R keeps u_ss bounded when the DC gain
// matrix is ill-conditioned — as it is for architectural knobs that move
// performance and power in nearly the same ratio — and prioritizes the
// heavily weighted outputs; integral action removes any residual offset.
func (c *Controller) buildTargetCalculator() error {
	p := c.plant
	n, ni, no := p.Order(), p.Inputs(), p.Outputs()
	ia := mat.Sub(mat.Identity(n), p.A)
	xOfU, err := mat.Solve(ia, p.B) // (I-A)⁻¹ B, n x ni
	if err != nil {
		// Pole at z = 1: fall back to the stacked min-norm solution.
		m := mat.New(n+no, n+ni)
		m.SetSubmatrix(0, 0, mat.Sub(p.A, mat.Identity(n)))
		m.SetSubmatrix(0, n, p.B)
		m.SetSubmatrix(n, 0, p.C)
		pinv, perr := mat.PInv(m)
		if perr != nil {
			return fmt.Errorf("lqg: target calculator: %w", perr)
		}
		c.targetGain = pinv.Slice(0, n+ni, n, n+no)
		return nil
	}
	g := mat.Mul(p.C, xOfU) // DC gain, no x ni
	gtqg := mat.Add(mat.MulChain(g.T(), c.qy, g), c.rCost)
	inv, err := mat.Inverse(gtqg)
	if err != nil {
		return fmt.Errorf("lqg: target calculator: %w", err)
	}
	uOfR := mat.MulChain(inv, g.T(), c.qy) // ni x no
	xOfR := mat.Mul(xOfU, uOfR)            // n x no
	c.targetGain = mat.VStack(xOfR, uOfR)
	return nil
}

// Clone returns an independent controller that shares the immutable
// design artifacts (plant, gains, cost matrices — none of which are
// written after Design) but owns a deep copy of every piece of runtime
// state, so the clone and the original can step concurrently. The
// parallel experiment engine clones one memoized design per job instead
// of redesigning per worker.
func (c *Controller) Clone() *Controller {
	d := *c
	d.newRuntime()
	copy(d.rt, c.rt)
	return &d
}

// Reset clears the runtime state (estimate, integrators, previous input)
// and the reference, reusing the existing block.
func (c *Controller) Reset() {
	if c.rt == nil {
		c.newRuntime()
		return
	}
	for i := range c.rt {
		c.rt[i] = 0
	}
}

// SetReference updates the output targets (in the model's deviation
// coordinates) and recomputes the steady-state targets.
func (c *Controller) SetReference(r []float64) error {
	g := c.g
	if len(r) != g.no {
		return fmt.Errorf("lqg: reference has %d entries, want %d", len(r), g.no)
	}
	copy(c.ref, r)
	for i := 0; i < g.n+g.ni; i++ {
		t := mulRow(g.tg[i*g.no:(i+1)*g.no], c.ref)
		if i < g.n {
			c.xss[i] = t
		} else {
			c.uss[i-g.n] = t
		}
	}
	return nil
}

// LastInnovation returns a copy of the measurement innovation
// y - C x̂ from the most recent Step (zero before the first step and
// after Reset). A persistently large innovation relative to the noise
// covariance means the model no longer explains the measurements — the
// signal the supervised runtime monitors to detect a sick model.
func (c *Controller) LastInnovation() []float64 {
	return append([]float64(nil), c.lastInnov...)
}

// LastInnovationInto appends the most recent innovation to dst[:0] and
// returns it, so callers with a preallocated buffer (the MIMO wrapper's
// telemetry path, the flight recorder) avoid the copy in
// LastInnovation allocating on every step.
func (c *Controller) LastInnovationInto(dst []float64) []float64 {
	dst = dst[:0]
	for _, v := range c.lastInnov {
		dst = append(dst, v)
	}
	return dst
}

// LastExcessNorm returns ‖u_requested − u_applied‖₂ from the most
// recent actuation (zero when the actuator realized the request
// exactly). A persistently nonzero excess means the controller is
// asking for inputs the hardware cannot deliver — saturation, the
// flight recorder's actuator-trouble signal.
func (c *Controller) LastExcessNorm() float64 {
	return mat.VecNorm2(c.lastExcess)
}

// Plant returns the design model.
func (c *Controller) Plant() *lti.StateSpace { return c.plant }

// AsStateSpace expresses the controller as an LTI system from measured
// output y to issued input u (deviation coordinates, reference fixed at
// zero), for closed-loop analysis. The controller states are
// [x̂ ; u_prev (if DeltaU) ; z (if Integral)].
func (c *Controller) AsStateSpace() (*lti.StateSpace, error) {
	p := c.plant
	n, ni, no := p.Order(), p.Inputs(), p.Outputs()
	dim := n
	uOff, zOff := -1, -1
	if c.opts.DeltaU {
		uOff = dim
		dim += ni
	}
	if c.opts.Integral {
		zOff = dim
		dim += no
	}
	// Ec = I - Lc C.
	ec := mat.Sub(mat.Identity(n), mat.Mul(c.lc, p.C))
	// u = Cc ξ + Dc y.
	cc := mat.New(ni, dim)
	var dc *mat.Matrix
	kxEc := mat.Mul(c.kx, ec)
	kxLc := mat.Mul(c.kx, c.lc)
	// u = -Kx x̂ᶜ [+ (I-Ku) u_prev] - Kz z, with x̂ᶜ = Ec x̂ + Lc y and z
	// read before its update z⁺ = z - y (reference fixed at zero).
	cc.SetSubmatrix(0, 0, mat.Scale(-1, kxEc))
	dc = mat.Scale(-1, kxLc)
	if c.opts.DeltaU {
		cc.SetSubmatrix(0, uOff, mat.Sub(mat.Identity(ni), c.ku))
	}
	if c.opts.Integral {
		cc.SetSubmatrix(0, zOff, mat.Scale(-1, c.kz))
	}
	// ξ⁺ = Aξ ξ + Bξ y, with the u-dependence substituted.
	ac := mat.New(dim, dim)
	bc := mat.New(dim, no)
	// x̂⁺ = A Ec x̂ + A Lc y + B u.
	ac.SetSubmatrix(0, 0, mat.Mul(p.A, ec))
	bc.SetSubmatrix(0, 0, mat.Mul(p.A, c.lc))
	// Add B*(Cc ξ + Dc y).
	addInputEffect := func(rows int, gain *mat.Matrix, rowOff int) {
		ac.SetSubmatrix(rowOff, 0, mat.Add(ac.Slice(rowOff, rowOff+rows, 0, dim), mat.Mul(gain, cc)).Slice(0, rows, 0, dim))
		bc.SetSubmatrix(rowOff, 0, mat.Add(bc.Slice(rowOff, rowOff+rows, 0, no), mat.Mul(gain, dc)).Slice(0, rows, 0, no))
	}
	addInputEffect(n, p.B, 0)
	if c.opts.DeltaU {
		// u_prev⁺ = u.
		addInputEffect(ni, mat.Identity(ni), uOff)
	}
	if c.opts.Integral {
		// z⁺ = z - y.
		ac.SetSubmatrix(zOff, zOff, mat.Identity(no))
		bc.SetSubmatrix(zOff, 0, mat.Scale(-1, mat.Identity(no)))
	}
	return lti.NewStateSpace(ac, bc, cc, dc, p.Ts)
}
