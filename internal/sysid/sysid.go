// Package sysid implements black-box system identification in the style
// the paper uses MATLAB's System Identification Toolbox for (§IV-B1,
// §VI-A2): design excitation waveforms for the plant inputs, record the
// output waveforms, fit a multivariable ARX model by least squares,
// realize it as a state-space model, and estimate the unpredictability
// (noise) matrices from the residuals.
package sysid

import (
	"errors"
	"fmt"
	"math"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
)

// ErrInsufficientExcitation reports that an identification record does
// not excite the plant richly enough to determine the requested model:
// the regression matrix is rank-deficient (or numerically close to it).
// This is the expected failure mode of closed-loop windows — a
// well-regulated plant sits at one operating point, so the regressor
// columns collapse — and callers (the online re-identification loop in
// internal/adapt) branch on it to request dither rather than accept a
// silently bad fit.
var ErrInsufficientExcitation = errors.New("sysid: insufficient excitation (rank-deficient regressor)")

// excitationCondTol is the relative threshold on the QR R-diagonal
// below which a regressor column is considered unexcited. It is looser
// than mat.(*QR).FullRank's 1e-12 machine-rank test on purpose: a
// column that is six orders of magnitude weaker than its peers is
// numerically present but statistically meaningless, and a fit through
// it amplifies noise into the coefficients.
const excitationCondTol = 1e-9

// checkExcitation returns ErrInsufficientExcitation when the R factor of
// the regression QR has a (relatively) negligible diagonal entry.
func checkExcitation(f *mat.QR) error {
	if !f.FullRank() {
		return ErrInsufficientExcitation
	}
	r := f.R()
	n := r.Rows()
	var mx float64
	for i := 0; i < n; i++ {
		if a := math.Abs(r.At(i, i)); a > mx {
			mx = a
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(r.At(i, i)) < mx*excitationCondTol {
			return ErrInsufficientExcitation
		}
	}
	return nil
}

// Data holds a sampled input/output record: U is T x I, Y is T x O, and
// Ts is the sample period.
type Data struct {
	U, Y *mat.Matrix
	Ts   float64
}

// NewData validates that U and Y have the same number of samples.
func NewData(u, y *mat.Matrix, ts float64) (*Data, error) {
	if u.Rows() != y.Rows() {
		return nil, fmt.Errorf("sysid: U has %d samples, Y has %d", u.Rows(), y.Rows())
	}
	if ts <= 0 {
		return nil, errors.New("sysid: sample period must be positive")
	}
	return &Data{U: u, Y: y, Ts: ts}, nil
}

// Samples returns the record length.
func (d *Data) Samples() int { return d.U.Rows() }

// Offsets records the operating point removed from a record before
// fitting, so the identified model describes deviations around it.
type Offsets struct {
	U0, Y0 []float64
}

// Detrend removes per-channel means from U and Y and returns the
// de-trended record plus the removed operating point.
func Detrend(d *Data) (*Data, Offsets) {
	t := d.Samples()
	u0 := make([]float64, d.U.Cols())
	y0 := make([]float64, d.Y.Cols())
	for j := range u0 {
		var s float64
		for k := 0; k < t; k++ {
			s += d.U.At(k, j)
		}
		u0[j] = s / float64(t)
	}
	for j := range y0 {
		var s float64
		for k := 0; k < t; k++ {
			s += d.Y.At(k, j)
		}
		y0[j] = s / float64(t)
	}
	du := mat.New(t, d.U.Cols())
	dy := mat.New(t, d.Y.Cols())
	for k := 0; k < t; k++ {
		for j := range u0 {
			du.Set(k, j, d.U.At(k, j)-u0[j])
		}
		for j := range y0 {
			dy.Set(k, j, d.Y.At(k, j)-y0[j])
		}
	}
	return &Data{U: du, Y: dy, Ts: d.Ts}, Offsets{U0: u0, Y0: y0}
}

// ARXOrders selects the regression structure: NA past outputs, NB past
// inputs, and whether a direct feed-through term u(t) is included.
// The paper's model (§IV-B1) uses outputs at t-1..t-k and inputs at
// t..t-l+1; Direct=true matches that (l = NB+1 including the current
// input).
type ARXOrders struct {
	NA     int
	NB     int
	Direct bool
}

// Validate checks the orders are usable.
func (o ARXOrders) Validate() error {
	if o.NA < 1 {
		return errors.New("sysid: NA must be >= 1")
	}
	if o.NB < 0 {
		return errors.New("sysid: NB must be >= 0")
	}
	if o.NB == 0 && !o.Direct {
		return errors.New("sysid: model must depend on the input (NB >= 1 or Direct)")
	}
	return nil
}

// Model is an identified state-space model in deviation coordinates plus
// its unpredictability description.
type Model struct {
	SS      *lti.StateSpace
	Off     Offsets
	Orders  ARXOrders
	ABlocks []*mat.Matrix // ARX output-regression blocks A_1..A_p (O x O)
	BBlocks []*mat.Matrix // ARX input-regression blocks B_1..B_p (O x I)
	B0      *mat.Matrix   // direct feed-through block (O x I), zero if !Direct

	// V is the measurement-noise covariance (O x O): the covariance of
	// the one-step prediction residuals. This is the paper's sensor-noise
	// unpredictability matrix.
	V *mat.Matrix
	// K is the innovation gain of the realization (N x O): residuals
	// enter the state through K, so the process-noise covariance is
	// W = K V Kᵀ. This is the paper's non-determinism unpredictability
	// matrix.
	K *mat.Matrix
	// W is the process-noise covariance (N x N).
	W *mat.Matrix
}

// FitARX fits the multivariable ARX model
//
//	y(t) = Σ_{i=1..NA} A_i y(t-i) + B_0 u(t) + Σ_{i=1..NB} B_i u(t-i) + e(t)
//
// by linear least squares on a (detrended) record, and realizes it in
// block-observer canonical form:
//
//	x_i(t+1) = A_i y(t) + x_{i+1}(t) + B_i u(t),   y(t) = x_1(t) + B_0 u(t)
//
// The state dimension is p*O with p = max(NA, NB).
func FitARX(d *Data, ord ARXOrders) (*Model, error) {
	if err := ord.Validate(); err != nil {
		return nil, err
	}
	det, off := Detrend(d)
	t := det.Samples()
	nu := det.U.Cols()
	ny := det.Y.Cols()
	p := ord.NA
	if ord.NB > p {
		p = ord.NB
	}
	start := p
	rows := t - start
	nreg := ord.NA*ny + ord.NB*nu
	if ord.Direct {
		nreg += nu
	}
	if rows <= nreg {
		return nil, fmt.Errorf("sysid: %d usable samples for %d regressors; record too short", rows, nreg)
	}
	// Build the regression matrix Φ and target Y.
	phi := mat.New(rows, nreg)
	tgt := mat.New(rows, ny)
	for k := 0; k < rows; k++ {
		tt := start + k
		col := 0
		for i := 1; i <= ord.NA; i++ {
			for j := 0; j < ny; j++ {
				phi.Set(k, col, det.Y.At(tt-i, j))
				col++
			}
		}
		if ord.Direct {
			for j := 0; j < nu; j++ {
				phi.Set(k, col, det.U.At(tt, j))
				col++
			}
		}
		for i := 1; i <= ord.NB; i++ {
			for j := 0; j < nu; j++ {
				phi.Set(k, col, det.U.At(tt-i, j))
				col++
			}
		}
		copy(tgt.RowView(k), det.Y.RowView(tt))
	}
	// Solve the regression explicitly through QR so rank deficiency is a
	// typed error instead of mat.LeastSquares' silent pseudo-inverse
	// fallback (which happily returns the minimum-norm fit of an
	// unexcited record). On well-conditioned data this is the exact code
	// path LeastSquares takes, so the numbers are bit-identical.
	f, err := mat.FactorQR(phi)
	if err != nil {
		return nil, fmt.Errorf("sysid: ARX regression: %w", err)
	}
	if err := checkExcitation(f); err != nil {
		return nil, fmt.Errorf("sysid: ARX regression over %d samples: %w", rows, err)
	}
	theta, err := f.Solve(tgt)
	if err != nil {
		return nil, fmt.Errorf("sysid: ARX regression: %w", err)
	}
	// Unpack coefficient blocks. theta is nreg x ny; coefficients for
	// output o are in column o.
	aBlocks := make([]*mat.Matrix, ord.NA)
	row := 0
	for i := 0; i < ord.NA; i++ {
		blk := mat.New(ny, ny)
		for j := 0; j < ny; j++ {
			for o := 0; o < ny; o++ {
				blk.Set(o, j, theta.At(row+j, o))
			}
		}
		aBlocks[i] = blk
		row += ny
	}
	b0 := mat.New(ny, nu)
	if ord.Direct {
		for j := 0; j < nu; j++ {
			for o := 0; o < ny; o++ {
				b0.Set(o, j, theta.At(row+j, o))
			}
		}
		row += nu
	}
	bBlocks := make([]*mat.Matrix, ord.NB)
	for i := 0; i < ord.NB; i++ {
		blk := mat.New(ny, nu)
		for j := 0; j < nu; j++ {
			for o := 0; o < ny; o++ {
				blk.Set(o, j, theta.At(row+j, o))
			}
		}
		bBlocks[i] = blk
		row += nu
	}
	// Residuals → measurement-noise covariance V.
	pred := mat.Mul(phi, theta)
	resid := mat.Sub(tgt, pred)
	v := mat.New(ny, ny)
	for k := 0; k < rows; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < ny; j++ {
				v.Set(i, j, v.At(i, j)+resid.At(k, i)*resid.At(k, j))
			}
		}
	}
	v = mat.Scale(1/float64(rows-nreg), v)

	ss, kGain, err := realizeARX(aBlocks, bBlocks, b0, p, ny, nu, d.Ts)
	if err != nil {
		return nil, err
	}
	w := mat.Symmetrize(mat.MulChain(kGain, v, kGain.T()))
	return &Model{
		SS: ss, Off: off, Orders: ord,
		ABlocks: aBlocks, BBlocks: bBlocks, B0: b0,
		V: v, K: kGain, W: w,
	}, nil
}

// realizeARX builds the block-observer canonical realization. Blocks
// beyond NA or NB are zero.
func realizeARX(aBlocks, bBlocks []*mat.Matrix, b0 *mat.Matrix, p, ny, nu int, ts float64) (*lti.StateSpace, *mat.Matrix, error) {
	n := p * ny
	a := mat.New(n, n)
	b := mat.New(n, nu)
	kGain := mat.New(n, ny)
	for i := 0; i < p; i++ {
		var ai *mat.Matrix
		if i < len(aBlocks) {
			ai = aBlocks[i]
		} else {
			ai = mat.New(ny, ny)
		}
		var bi *mat.Matrix
		if i < len(bBlocks) {
			bi = bBlocks[i]
		} else {
			bi = mat.New(ny, nu)
		}
		// x_i(t+1) = A_i y(t) + x_{i+1}(t) + B_i u(t)
		// With y = x_1 + B_0 u:  A block col 0 gets A_i, B gets B_i + A_i B_0.
		a.SetSubmatrix(i*ny, 0, ai)
		if i+1 < p {
			a.SetSubmatrix(i*ny, (i+1)*ny, mat.Identity(ny))
		}
		b.SetSubmatrix(i*ny, 0, mat.Add(bi, mat.Mul(ai, b0)))
		// Innovations e(t) enter exactly as y(t) does: through A_i.
		kGain.SetSubmatrix(i*ny, 0, ai)
	}
	c := mat.New(ny, n)
	c.SetSubmatrix(0, 0, mat.Identity(ny))
	ss, err := lti.NewStateSpace(a, b, c, b0.Clone(), ts)
	if err != nil {
		return nil, nil, err
	}
	return ss, kGain, nil
}

// ModelFromBlocks realizes a Model from externally estimated ARX
// coefficient blocks — the entry point for estimators that do not run
// the batch regression in FitARX, such as the recursive least-squares
// tracker in internal/adapt. off is the operating point the blocks
// describe deviations around; v is the measurement-noise covariance
// (O x O) estimated alongside the coefficients. b0 may be nil for
// models without direct feed-through.
func ModelFromBlocks(aBlocks, bBlocks []*mat.Matrix, b0 *mat.Matrix, off Offsets, v *mat.Matrix, ts float64) (*Model, error) {
	if len(aBlocks) == 0 {
		return nil, errors.New("sysid: ModelFromBlocks requires at least one A block")
	}
	ny := aBlocks[0].Rows()
	nu := 0
	if len(bBlocks) > 0 {
		nu = bBlocks[0].Cols()
	} else if b0 != nil {
		nu = b0.Cols()
	}
	if nu == 0 {
		return nil, errors.New("sysid: ModelFromBlocks requires input blocks (BBlocks or B0)")
	}
	ord := ARXOrders{NA: len(aBlocks), NB: len(bBlocks), Direct: b0 != nil}
	if err := ord.Validate(); err != nil {
		return nil, err
	}
	if b0 == nil {
		b0 = mat.New(ny, nu)
	}
	if v == nil || v.Rows() != ny || v.Cols() != ny {
		return nil, errors.New("sysid: ModelFromBlocks requires an O x O noise covariance")
	}
	p := ord.NA
	if ord.NB > p {
		p = ord.NB
	}
	ss, kGain, err := realizeARX(aBlocks, bBlocks, b0, p, ny, nu, ts)
	if err != nil {
		return nil, err
	}
	w := mat.Symmetrize(mat.MulChain(kGain, v, kGain.T()))
	return &Model{
		SS: ss, Off: off, Orders: ord,
		ABlocks: aBlocks, BBlocks: bBlocks, B0: b0,
		V: v, K: kGain, W: w,
	}, nil
}

// Predict free-runs the model over the inputs of d (absolute units) from
// a zero deviation state and returns the predicted outputs in absolute
// units. This is "simulation mode" validation: no output feedback.
func (m *Model) Predict(d *Data) (*mat.Matrix, error) {
	if d.U.Cols() != m.SS.Inputs() {
		return nil, fmt.Errorf("sysid: predict input width %d, want %d", d.U.Cols(), m.SS.Inputs())
	}
	t := d.Samples()
	du := mat.New(t, d.U.Cols())
	for k := 0; k < t; k++ {
		for j := 0; j < d.U.Cols(); j++ {
			du.Set(k, j, d.U.At(k, j)-m.Off.U0[j])
		}
	}
	dy, err := m.SS.Simulate(make([]float64, m.SS.Order()), du)
	if err != nil {
		return nil, err
	}
	y := mat.New(t, dy.Cols())
	for k := 0; k < t; k++ {
		for j := 0; j < dy.Cols(); j++ {
			y.Set(k, j, dy.At(k, j)+m.Off.Y0[j])
		}
	}
	return y, nil
}

// OneStepPredict predicts each y(t) from measured past outputs and inputs
// (prediction mode): the standard one-step-ahead ARX predictor.
func (m *Model) OneStepPredict(d *Data) (*mat.Matrix, error) {
	if d.U.Cols() != m.SS.Inputs() || d.Y.Cols() != m.SS.Outputs() {
		return nil, errors.New("sysid: one-step predict dimension mismatch")
	}
	if len(m.ABlocks) == 0 {
		return nil, errors.New("sysid: one-step prediction requires an ARX model (see FitARX)")
	}
	t := d.Samples()
	ny := d.Y.Cols()
	nu := d.U.Cols()
	p := len(m.ABlocks)
	if len(m.BBlocks) > p {
		p = len(m.BBlocks)
	}
	out := mat.New(t, ny)
	// Per-call scratch reused across the time loop: the predictor runs
	// over thousands of samples inside design sweeps, so the inner loop
	// must not allocate.
	yk := make([]float64, ny)
	dy := make([]float64, ny)
	du := make([]float64, nu)
	mv := make([]float64, ny)
	for k := 0; k < t; k++ {
		for i := range yk {
			yk[i] = 0
		}
		for i := 1; i <= len(m.ABlocks); i++ {
			if k-i < 0 {
				continue
			}
			mat.VecSubInto(dy, d.Y.RowView(k-i), m.Off.Y0)
			mat.VecAddInto(yk, yk, mat.MulVecInto(mv, m.ABlocks[i-1], dy))
		}
		mat.VecSubInto(du, d.U.RowView(k), m.Off.U0)
		mat.VecAddInto(yk, yk, mat.MulVecInto(mv, m.B0, du))
		for i := 1; i <= len(m.BBlocks); i++ {
			if k-i < 0 {
				continue
			}
			mat.VecSubInto(du, d.U.RowView(k-i), m.Off.U0)
			mat.VecAddInto(yk, yk, mat.MulVecInto(mv, m.BBlocks[i-1], du))
		}
		mat.VecAddInto(out.RowView(k), yk, m.Off.Y0)
	}
	return out, nil
}
