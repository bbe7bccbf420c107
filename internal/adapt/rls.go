package adapt

import (
	"math"

	"mimoctl/internal/mat"
	"mimoctl/internal/sysid"
)

// rls is a recursive least-squares tracker of the multivariable ARX
// coefficients the batch fit (sysid.FitARX) estimates offline:
//
//	y(t) = Σ A_i y(t-i) + Σ B_i u(t-i) + c + e(t)
//
// in the deviation coordinates of the *design-time* operating point.
// The intercept c is the novelty relative to the batch fit: online, the
// operating point itself drifts, and without an intercept that drift
// would be forced into the dynamic coefficients. All outputs share one
// regressor, so a single covariance P serves every output channel
// (standard MIMO RLS).
//
// Every buffer is allocated at construction; observe() performs no heap
// allocation, which is what keeps the supervised Step at zero
// allocations while adaptation is idle (DESIGN.md §7).
type rls struct {
	na, nb, ny, nu int
	lags           int // max(na, nb): history depth
	nreg           int // na*ny + nb*nu + 1 (intercept)

	lambda     float64 // forgetting factor
	traceCap   float64 // covariance windup bound
	noiseAlpha float64 // residual-covariance EMA coefficient
	opAlpha    float64 // operating-point EMA coefficient

	theta []float64   // nreg x ny coefficients, row-major [regressor][output]
	cov   []float64   // nreg x nreg covariance P
	yPast [][]float64 // yPast[i] = y(t-1-i) deviation, i < lags
	uPast [][]float64 // uPast[i] = u(t-1-i) deviation

	filled int // consecutive clean pushes; updates need >= lags

	phi   []float64 // regressor scratch
	pf    []float64 // P*phi scratch
	resid []float64 // per-output prediction error scratch
	vhat  []float64 // ny x ny residual-covariance EMA
	uOp   []float64 // EMA of the input deviation: the live operating point

	updates uint64
	skipped uint64
}

// newRLS warm-starts the tracker from an identified model: the batch
// coefficients seed theta, the batch noise covariance seeds the
// residual EMA, and P starts at rlsInitialCovariance·I (small enough
// that it takes real evidence to move a trusted coefficient).
func newRLS(m *sysid.Model) *rls {
	na, nb := len(m.ABlocks), len(m.BBlocks)
	ny, nu := m.SS.Outputs(), m.SS.Inputs()
	lags := na
	if nb > lags {
		lags = nb
	}
	nreg := na*ny + nb*nu + 1
	r := &rls{
		na: na, nb: nb, ny: ny, nu: nu, lags: lags, nreg: nreg,
		lambda: rlsLambda, traceCap: rlsCovarianceCap, noiseAlpha: rlsNoiseAlpha, opAlpha: rlsOperatingPointAlpha,
		theta: make([]float64, nreg*ny),
		cov:   make([]float64, nreg*nreg),
		phi:   make([]float64, nreg),
		pf:    make([]float64, nreg),
		resid: make([]float64, ny),
		vhat:  make([]float64, ny*ny),
		uOp:   make([]float64, nu),
	}
	r.yPast = make([][]float64, lags)
	r.uPast = make([][]float64, lags)
	for i := 0; i < lags; i++ {
		r.yPast[i] = make([]float64, ny)
		r.uPast[i] = make([]float64, nu)
	}
	for i := 0; i < na; i++ {
		for j := 0; j < ny; j++ {
			for o := 0; o < ny; o++ {
				r.theta[(i*ny+j)*ny+o] = m.ABlocks[i].At(o, j)
			}
		}
	}
	base := na * ny
	for i := 0; i < nb; i++ {
		for j := 0; j < nu; j++ {
			for o := 0; o < ny; o++ {
				r.theta[(base+i*nu+j)*ny+o] = m.BBlocks[i].At(o, j)
			}
		}
	}
	for i := 0; i < nreg; i++ {
		r.cov[i*nreg+i] = rlsInitialCovariance
	}
	for i := 0; i < ny; i++ {
		for j := 0; j < ny; j++ {
			r.vhat[i*ny+j] = m.V.At(i, j)
		}
	}
	return r
}

// observe consumes one epoch: yDev is this epoch's measured output and
// uDev the input issued this epoch, both in design-offset deviation
// coordinates. When the lag history holds enough clean epochs the
// coefficients are updated against yDev first; then (yDev, uDev) enter
// the history. clean=false marks sanitized/poisoned telemetry: the
// update is skipped and the history restarts, so fault-era samples can
// never reach a regressor.
func (r *rls) observe(yDev, uDev []float64, clean bool) {
	if clean && r.filled >= r.lags {
		r.update(yDev)
	}
	for i := r.lags - 1; i > 0; i-- {
		copy(r.yPast[i], r.yPast[i-1])
		copy(r.uPast[i], r.uPast[i-1])
	}
	copy(r.yPast[0], yDev)
	copy(r.uPast[0], uDev)
	if clean {
		if r.filled <= r.lags {
			r.filled++
		}
		for j := range r.uOp {
			r.uOp[j] += r.opAlpha * (uDev[j] - r.uOp[j])
		}
	} else {
		r.filled = 0
	}
}

// update runs one RLS step against target y (deviation coordinates).
func (r *rls) update(y []float64) {
	n := r.nreg
	// Regressor, in FitARX column order (y-lags, u-lags) + intercept.
	idx := 0
	for i := 0; i < r.na; i++ {
		for j := 0; j < r.ny; j++ {
			r.phi[idx] = r.yPast[i][j]
			idx++
		}
	}
	for i := 0; i < r.nb; i++ {
		for j := 0; j < r.nu; j++ {
			r.phi[idx] = r.uPast[i][j]
			idx++
		}
	}
	r.phi[n-1] = 1

	// pf = P φ; info = φᵀ P φ.
	info := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		row := r.cov[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s += row[j] * r.phi[j]
		}
		r.pf[i] = s
		info += r.phi[i] * s
	}
	if info < 1e-12 || math.IsNaN(info) || math.IsInf(info, 0) {
		// The regressor carries no information (or the covariance is
		// corrupt): updating would only amplify noise / windup.
		r.skipped++
		return
	}
	denom := r.lambda + info

	// Prediction errors per output, then θ ← θ + k e with k = pf/denom.
	for o := 0; o < r.ny; o++ {
		pred := 0.0
		for i := 0; i < n; i++ {
			pred += r.phi[i] * r.theta[i*r.ny+o]
		}
		r.resid[o] = y[o] - pred
	}
	for i := 0; i < n; i++ {
		k := r.pf[i] / denom
		for o := 0; o < r.ny; o++ {
			r.theta[i*r.ny+o] += k * r.resid[o]
		}
	}

	// P ← (P − k pfᵀ)/λ, symmetrized; then the trace cap bounds the
	// covariance windup a persistently unexciting regressor causes
	// (the forgetting factor inflates unexcited directions by 1/λ per
	// step without bound otherwise).
	for i := 0; i < n; i++ {
		ki := r.pf[i] / denom
		for j := 0; j < n; j++ {
			r.cov[i*n+j] = (r.cov[i*n+j] - ki*r.pf[j]) / r.lambda
		}
	}
	tr := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := 0.5 * (r.cov[i*n+j] + r.cov[j*n+i])
			r.cov[i*n+j], r.cov[j*n+i] = m, m
		}
		tr += r.cov[i*n+i]
	}
	if tr > r.traceCap {
		s := r.traceCap / tr
		for i := range r.cov {
			r.cov[i] *= s
		}
	}

	// Residual covariance EMA: feeds V (and W = K V Kᵀ) of the
	// re-identified model.
	for i := 0; i < r.ny; i++ {
		for j := 0; j < r.ny; j++ {
			r.vhat[i*r.ny+j] += r.noiseAlpha * (r.resid[i]*r.resid[j] - r.vhat[i*r.ny+j])
		}
	}
	r.updates++
}

// gap marks the sample stream discontinuous (a held or failed epoch):
// the lag history must refill with contiguous clean samples before the
// next update.
func (r *rls) gap() {
	r.filled = 0
}

// excitation is the covariance-based poor-excitation metric: the
// largest diagonal entry of P. Directions the closed loop never
// excites keep (or grow) large parameter uncertainty; a small value
// means every coefficient is pinned down by recent data.
func (r *rls) excitation() float64 {
	mx := 0.0
	for i := 0; i < r.nreg; i++ {
		if d := r.cov[i*r.nreg+i]; d > mx {
			mx = d
		}
	}
	return mx
}

// blocks exports the current estimate as ARX coefficient blocks plus
// the intercept and the residual covariance. Called off the hot path
// (redesign time); allocates its results.
func (r *rls) blocks() (aBlocks, bBlocks []*mat.Matrix, intercept []float64, v *mat.Matrix) {
	aBlocks = make([]*mat.Matrix, r.na)
	for i := 0; i < r.na; i++ {
		blk := mat.New(r.ny, r.ny)
		for j := 0; j < r.ny; j++ {
			for o := 0; o < r.ny; o++ {
				blk.Set(o, j, r.theta[(i*r.ny+j)*r.ny+o])
			}
		}
		aBlocks[i] = blk
	}
	base := r.na * r.ny
	bBlocks = make([]*mat.Matrix, r.nb)
	for i := 0; i < r.nb; i++ {
		blk := mat.New(r.ny, r.nu)
		for j := 0; j < r.nu; j++ {
			for o := 0; o < r.ny; o++ {
				blk.Set(o, j, r.theta[(base+i*r.nu+j)*r.ny+o])
			}
		}
		bBlocks[i] = blk
	}
	intercept = make([]float64, r.ny)
	for o := 0; o < r.ny; o++ {
		intercept[o] = r.theta[(r.nreg-1)*r.ny+o]
	}
	v = mat.New(r.ny, r.ny)
	for i := 0; i < r.ny; i++ {
		for j := 0; j < r.ny; j++ {
			v.Set(i, j, r.vhat[i*r.ny+j])
		}
		// A collapsed residual variance would hand the Kalman design a
		// singular V; keep a floor.
		if v.At(i, i) < 1e-10 {
			v.Set(i, i, 1e-10)
		}
	}
	return aBlocks, bBlocks, intercept, mat.Symmetrize(v)
}

// operatingPoint returns the EMA of the input deviation — where the
// loop actually sits relative to the design operating point.
func (r *rls) operatingPoint() []float64 {
	out := make([]float64, r.nu)
	copy(out, r.uOp)
	return out
}
