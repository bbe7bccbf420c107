package adapt

import (
	"fmt"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/obs"
	"mimoctl/internal/robust"
	"mimoctl/internal/sysid"
)

// candidate is a fully realized redesign awaiting its verification
// verdict.
type candidate struct {
	model  *sysid.Model
	lq     *lqg.Controller
	ctrlSS *lti.StateSpace
	report *robust.Report
}

// guardbands returns the per-output uncertainty bounds the candidate
// must absorb: the design guardbands inflated to the mismatch the
// health monitor actually observed. A drifted plant that ate 70% of
// the IPS budget forces the new design to certify against 70%, not the
// design-time 50% — the certificate must cover the world as measured,
// not as hoped.
func (a *Adapter) guardbands() []float64 {
	gi, gp := a.opts.IPSGuardband, a.opts.PowerGuardband
	mi, mp := a.opts.Monitor.ObservedMismatch()
	if mi > gi {
		gi = mi
	}
	if mp > gp {
		gp = mp
	}
	return []float64{gi, gp}
}

// redesign realizes the estimator's current coefficients and re-runs
// the paper's synthesis loop against them (core.Synthesize: LQG with
// the Table III weights, input weights doubled until the small-gain
// check passes at the inflated guardbands, at most
// core.DefaultMaxRSAIterations designs); the candidate must be
// nominally and robustly stable. Runs off the per-epoch hot path;
// allocation is fine here.
func (a *Adapter) redesign() (*candidate, error) {
	aB, bB, intercept, vCov := a.est.blocks()

	// The RLS fit lives in the deployed design's deviation frame and
	// carries an intercept: y = ΣA·y + ΣB·u + c. Absorb the intercept
	// into a shifted operating point by solving the fixed point
	// (I − ΣA)·y0' = ΣB·u0' + c at the observed input operating point
	// u0'; the model realized about (u0', y0') then has no intercept.
	uShift := a.est.operatingPoint()
	sumA := mat.New(a.ny, a.ny)
	for _, blk := range aB {
		sumA = mat.Add(sumA, blk)
	}
	rhs := mat.New(a.ny, 1)
	for o := 0; o < a.ny; o++ {
		s := intercept[o]
		for _, blk := range bB {
			for j := 0; j < a.nu; j++ {
				s += blk.At(o, j) * uShift[j]
			}
		}
		rhs.Set(o, 0, s)
	}
	yShiftM, err := mat.LeastSquares(mat.Sub(mat.Identity(a.ny), sumA), rhs)
	if err != nil {
		return nil, fmt.Errorf("adapt: operating-point fixed point: %w", err)
	}
	off := sysid.Offsets{
		U0: make([]float64, a.nu),
		Y0: make([]float64, a.ny),
	}
	for j := 0; j < a.nu; j++ {
		off.U0[j] = a.base.U0[j] + uShift[j]
	}
	for o := 0; o < a.ny; o++ {
		off.Y0[o] = a.base.Y0[o] + yShiftM.At(o, 0)
	}

	model, err := sysid.ModelFromBlocks(aB, bB, nil, off, vCov, a.ts)
	if err != nil {
		return nil, fmt.Errorf("adapt: realize re-identified model: %w", err)
	}

	gb := a.guardbands()
	inW := []float64{core.DefaultFreqWeight, core.DefaultCacheWeight}
	if a.nu == 3 {
		inW = append(inW, core.DefaultROBWeight)
	}
	syn, err := core.Synthesize(model, []float64{core.DefaultIPSWeight, core.DefaultPowerWeight}, inW,
		lqg.Options{DeltaU: true, Integral: true}, gb, core.DefaultMaxRSAIterations)
	if err != nil {
		return nil, fmt.Errorf("adapt: redesign: %w", err)
	}
	if rep := syn.RSA; !rep.NominallyStable || !rep.RobustlyStable {
		return nil, fmt.Errorf("adapt: redesign iteration %d fails small-gain at guardbands %.2f/%.2f (spectral radius %.4f, peak gain %.3f)",
			syn.Doublings, gb[0], gb[1], rep.SpectralRadius, rep.PeakGain)
	}
	return &candidate{model: model, lq: syn.LQ, ctrlSS: syn.CtrlSS, report: syn.RSA}, nil
}

// verifyAndSwap is the acceptance gate: the candidate is re-analyzed
// against freshly inflated guardbands (the observed mismatch may have
// moved since the design epoch) and installed only on a small-gain
// pass that the target also accepts. On success the health monitor is
// rebased to the new loop and the estimator re-warm-starts from the
// adopted model.
func (a *Adapter) verifyAndSwap(v *Verdict) bool {
	cand := a.cand
	if cand == nil {
		a.lastErr = fmt.Errorf("adapt: verification reached with no candidate")
		return false
	}
	rep, err := robust.Analyze(cand.model.SS, cand.ctrlSS, a.guardbands())
	if err != nil {
		a.lastErr = fmt.Errorf("adapt: verification analysis: %w", err)
		return false
	}
	a.stats.LastMargin = rep.Margin
	if m := a.tel; m != nil {
		m.lastMargin.Set(rep.Margin)
	}
	if !rep.NominallyStable || !rep.RobustlyStable {
		a.lastErr = fmt.Errorf("adapt: candidate rejected by small-gain verification (peak gain %.3f at inflated guardbands)", rep.PeakGain)
		return false
	}
	if ds, ok := a.opts.Target.(designSnapshotter); ok {
		a.prevLQ, a.prevOff = ds.CurrentDesign()
	}
	if err := a.opts.Target.AdoptDesign(cand.lq, cand.model.Off); err != nil {
		a.lastErr = fmt.Errorf("adapt: target rejected gains: %w", err)
		a.prevLQ = nil
		return false
	}
	a.pendModel, a.pendCtrlSS = cand.model, cand.ctrlSS
	a.opts.Monitor.Rebase(cand.model.SS, cand.ctrlSS)
	a.base = cand.model.Off
	a.est = newRLS(cand.model)
	a.lastErr = nil
	a.stats.Swaps++
	if m := a.tel; m != nil {
		m.swaps.Inc()
	}
	v.Flags |= obs.FlagAdaptSwap
	v.Swapped = true
	return true
}

// revert undoes a hot swap whose probation failed: the pre-swap gains
// go back into the target, the monitor is rebased onto the design they
// belong to, and the estimator re-warm-starts from it. The episode ends
// in a full cooldown — the data that produced the bad candidate is
// suspect, so immediately re-identifying from it would reproduce the
// mistake.
func (a *Adapter) revert(v *Verdict) {
	if a.prevLQ != nil {
		if err := a.opts.Target.AdoptDesign(a.prevLQ, a.prevOff); err != nil {
			// The old gains were flying minutes ago; a rejection here means
			// the targets moved to something only the new design realizes.
			// Keep the new design — probation still ends the episode.
			a.lastErr = fmt.Errorf("adapt: revert rejected: %w", err)
		} else {
			a.opts.Monitor.Rebase(a.deployedModel.SS, a.deployedCtrlSS)
			a.base = a.deployedModel.Off
			a.est = newRLS(a.deployedModel)
			v.Flags |= obs.FlagAdaptRevert
			v.Reverted = true
		}
	}
	a.prevLQ = nil
	a.pendModel, a.pendCtrlSS = nil, nil
	a.revertPending = false
	a.probLeft = 0
	a.stats.Reverts++
	if m := a.tel; m != nil {
		m.reverts.Inc()
	}
	a.cooldown = cooldownEpochs
	a.toState(StateNominal)
}
