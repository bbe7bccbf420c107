// Package adapt closes the adaptation loop the paper leaves open: the
// design flow of §IV (identify → realize → LQG design → robust-stability
// guardband check) runs once, offline, and the deployed controller then
// trusts its model forever. internal/health can detect that the trust is
// misplaced — plant aging moves the true dynamics until the Kalman
// innovations stop being white and eat through the certified guardband —
// but detection alone only buys a safe fallback pin.
//
// This package turns that detection into recovery. An Adapter rides the
// supervised control loop and, on sustained drift evidence, walks a
// hot-swap state machine:
//
//		Nominal → Drifted → Exciting → Redesigning → Verifying → Swapped → Nominal
//		                        ↑______________________|   (retry)    |
//		                                          (probation revert) → Nominal + cooldown
//
//	  - Nominal: a streaming RLS estimator shadows the ARX coefficients
//	    from the same telemetry the controller consumes. Zero allocation,
//	    no behavioral effect.
//	  - Drifted: the health monitor has reported LevelFail for a sustained
//	    streak (or the supervisor reported a model-shaped fallback). If the
//	    regressor is poorly excited — the usual case in closed-loop steady
//	    state — excitation is scheduled first.
//	  - Exciting: low-amplitude PRBS dither (±1 knob index) is injected on
//	    top of whatever configuration the loop wants, flight-recorded with
//	    FlagExcitation, until the estimator covariance shows the data
//	    pinned the coefficients down.
//	  - Redesigning: the RLS estimate is realized (sysid.ModelFromBlocks)
//	    and the paper's LQG + input-weight-doubling recipe re-run against
//	    it — off the per-epoch hot path.
//	  - Verifying: the candidate loop must pass the small-gain test not at
//	    the design guardbands but at guardbands inflated to the mismatch
//	    the monitor actually observed. A redesign that cannot absorb the
//	    measured drift is rejected; failure returns to Exciting (bounded
//	    attempts), then gives up into a cooldown.
//	  - Swapped: the gains are installed atomically via AdoptDesign, the
//	    health monitor is rebased so stale statistics cannot re-trigger,
//	    and the estimator re-warm-starts from the adopted model. The new
//	    design then flies on probation: if the rebased monitor returns to
//	    its fail verdict — or the supervisor reports another model-shaped
//	    fallback — within ProbationEpochs, the pre-swap gains are
//	    restored and the episode ends in cooldown. This is the defense
//	    against identification poisoned by an undetected transient fault
//	    (plausibly lying sensors, silently lagging actuation): such a
//	    candidate passes the small-gain gate against its own wrong model,
//	    and only the closed loop can expose it.
//
// Every stage degrades safely: the supervisor's fallback/sanitization
// machinery stays in charge throughout, and an Adapter that never
// triggers never changes a single configuration.
package adapt

import (
	"errors"
	"fmt"
	"math/rand"

	"mimoctl/internal/core"
	"mimoctl/internal/health"
	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// State is the adaptation state machine position.
type State int

const (
	// StateNominal: estimator shadowing only; no behavioral effect.
	StateNominal State = iota
	// StateDrifted: drift evidence accepted; deciding how to proceed.
	StateDrifted
	// StateExciting: identification dither is being injected.
	StateExciting
	// StateRedesigning: a candidate design is being computed.
	StateRedesigning
	// StateVerifying: the candidate awaits its small-gain verdict.
	StateVerifying
	// StateSwapped: new gains installed; on probation until the rebased
	// health monitor has stayed off its fail verdict for
	// ProbationEpochs (reverts to the previous gains otherwise), then
	// settling before rearming.
	StateSwapped
)

func (s State) String() string {
	switch s {
	case StateNominal:
		return "nominal"
	case StateDrifted:
		return "drifted"
	case StateExciting:
		return "exciting"
	case StateRedesigning:
		return "redesigning"
	case StateVerifying:
		return "verifying"
	case StateSwapped:
		return "swapped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// DesignTarget receives re-identified controller gains. Implemented by
// core.MIMOController.
type DesignTarget interface {
	AdoptDesign(lq *lqg.Controller, off sysid.Offsets) error
}

// designSnapshotter is the optional DesignTarget extension that lets the
// adapter snapshot the deployed gains before a swap so a probation
// failure can revert. core.MIMOController implements it; targets that do
// not simply forgo the revert safety net.
type designSnapshotter interface {
	CurrentDesign() (*lqg.Controller, sysid.Offsets)
}

// Options configures an Adapter. Model and Target are required.
type Options struct {
	// Model is the currently deployed identified model: it fixes the
	// ARX orders, warm-starts the estimator, and provides the
	// design-time operating point.
	Model *sysid.Model
	// Target receives accepted designs (the deployed MIMO controller).
	Target DesignTarget
	// Monitor is the model-health monitor whose fail verdict triggers
	// adaptation and whose observed mismatch inflates the verification
	// guardbands. Optional: without it only NoteModelFallback can
	// trigger.
	Monitor *health.Monitor
	// Seed fixes the excitation randomness.
	Seed int64

	// FailStreak is how many consecutive epochs the monitor must report
	// LevelFail before adaptation triggers (default 192 ≈ 10 ms).
	FailStreak int
	// ExciteEpochs is the dither duration per excitation round
	// (default 1500); DitherHold is the PRBS hold time in epochs
	// (default 6).
	ExciteEpochs int
	DitherHold   int
	// ExcitationGood is the max-diag(P) level at or below which the
	// estimator counts as recently well-excited and the dither round
	// can be skipped (default 500). The metric cannot reach zero: an
	// over-parameterized ARX regressor is inherently near-collinear,
	// so its weakest covariance direction floors at O(10) even under
	// persistent excitation, while covariance windup under steady
	// closed-loop operation grows it to the CovarianceCap scale. The
	// threshold separates those two regimes.
	ExcitationGood float64
	// SettleEpochs is how long after a swap the machine waits before
	// rearming (default 400). CooldownEpochs is the lockout after the
	// attempt budget is exhausted or a probation revert (default 4000).
	// MaxAttempts bounds excite→redesign→verify rounds per drift
	// episode (default 3).
	SettleEpochs   int
	CooldownEpochs int
	MaxAttempts    int
	// ProbationEpochs is the post-swap watch window (default 600): a
	// freshly swapped design that drives the rebased health monitor
	// back to its fail verdict — or sends the supervisor into another
	// model-shaped fallback — within this window is judged worse than
	// what it replaced, and the previous gains are restored. The window
	// covers identification poisoned by an undetected transient fault
	// (sensors lying plausibly, actuation lagging silently): the
	// candidate passed the small-gain gate against its own wrong model,
	// and only the closed loop can expose it.
	ProbationEpochs int

	// Design guardbands; verification uses
	// max(guardband, Monitor.ObservedMismatch()) per channel.
	IPSGuardband, PowerGuardband float64
}

// RLS tuning: rlsLambda is the forgetting factor (≈200-epoch memory at
// 50 µs epochs); rlsInitialCovariance scales the warm-start parameter
// covariance; rlsCovarianceCap bounds covariance windup under poor
// excitation; rlsNoiseAlpha is the residual-covariance EMA coefficient;
// rlsOperatingPointAlpha tracks the live operating point.
const (
	rlsLambda              float64 = 0.995
	rlsInitialCovariance   float64 = 10
	rlsCovarianceCap       float64 = 1e5
	rlsNoiseAlpha          float64 = 0.01
	rlsOperatingPointAlpha float64 = 0.005
)

// The redesign recipe mirrors core.DesignFrom: Table III weights, the
// input weights doubled up to maxRSAIterations times until the
// small-gain check passes.
const maxRSAIterations = 8

func (o Options) withDefaults() Options {
	if o.FailStreak == 0 {
		o.FailStreak = 192
	}
	if o.ExciteEpochs == 0 {
		o.ExciteEpochs = 1500
	}
	if o.DitherHold == 0 {
		o.DitherHold = 6
	}
	if o.ExcitationGood == 0 {
		o.ExcitationGood = 500
	}
	if o.SettleEpochs == 0 {
		o.SettleEpochs = 400
	}
	if o.CooldownEpochs == 0 {
		o.CooldownEpochs = 4000
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.ProbationEpochs == 0 {
		o.ProbationEpochs = 600
	}
	if o.IPSGuardband == 0 {
		o.IPSGuardband = core.DefaultIPSGuardband
	}
	if o.PowerGuardband == 0 {
		o.PowerGuardband = core.DefaultPowerGuardband
	}
	return o
}

// Stats counts adaptation activity since construction.
type Stats struct {
	// Triggers counts accepted drift episodes.
	Triggers int
	// ExciteEpochs counts epochs that carried identification dither.
	ExciteEpochs int
	// Redesigns counts candidate design computations; DesignErrors the
	// ones that failed outright (no stabilizing/robust design found).
	Redesigns    int
	DesignErrors int
	// VerifyFailures counts candidates rejected by the inflated-
	// guardband small-gain gate (or by the target refusing the gains).
	VerifyFailures int
	// Swaps counts accepted hot swaps; Reverts swaps undone after
	// failing post-swap probation; GiveUps exhausted episodes.
	Swaps   int
	Reverts int
	GiveUps int
	// LastMargin is the small-gain margin of the last verification
	// (1/peak-gain; > 1 means certified).
	LastMargin float64
}

// Verdict is the per-epoch output of Advance.
type Verdict struct {
	// Cfg is the configuration to issue (the proposal, possibly
	// carrying excitation dither).
	Cfg sim.Config
	// Flags are obs.Flag* bits to stage for this epoch.
	Flags uint32
	// Swapped reports that new gains were installed this epoch; the
	// caller should reset any loop-shape alarm state it keeps.
	Swapped bool
	// Reverted reports that a probation failure restored the previous
	// gains this epoch; the caller should reset alarm state exactly as
	// for a swap.
	Reverted bool
}

// Adapter is the drift-recovery engine. It is not safe for concurrent
// use; the supervisor drives it from its Step.
type Adapter struct {
	opts Options
	est  *rls
	base sysid.Offsets // operating point of the deployed design
	ts   float64
	ny   int
	nu   int
	rng  *rand.Rand

	state      State
	stats      Stats
	lastErr    error
	failStreak int
	pending    bool // NoteModelFallback latched
	cooldown   int
	exciteLeft int
	settleLeft int
	attempts   int

	dFreq, dCache, dROB []float64
	dPos                int

	cand *candidate

	// Probation/revert state. deployed* is the last design that survived
	// probation (the construction-time one until a swap does); prev*
	// snapshots the target's gains across a swap so a probation failure
	// can restore them.
	deployedModel  *sysid.Model
	deployedCtrlSS *lti.StateSpace
	pendModel      *sysid.Model
	pendCtrlSS     *lti.StateSpace
	prevLQ         *lqg.Controller
	prevOff        sysid.Offsets
	probLeft       int
	revertPending  bool

	yScr [2]float64

	// Instrument binding (nil: unbound).
	tel  *adaptMetrics
	uScr [3]float64
}

// New builds an Adapter shadowing the given deployed design.
func New(opts Options) (*Adapter, error) {
	if opts.Model == nil {
		return nil, errors.New("adapt: Options.Model is required")
	}
	if opts.Target == nil {
		return nil, errors.New("adapt: Options.Target is required")
	}
	opts = opts.withDefaults()
	ny, nu := opts.Model.SS.Outputs(), opts.Model.SS.Inputs()
	if ny != 2 || (nu != 2 && nu != 3) {
		return nil, fmt.Errorf("adapt: unsupported plant shape %d outputs x %d inputs", ny, nu)
	}
	a := &Adapter{
		opts:          opts,
		est:           newRLS(opts.Model),
		base:          opts.Model.Off,
		ts:            opts.Model.SS.Ts,
		ny:            ny,
		nu:            nu,
		rng:           rand.New(rand.NewSource(opts.Seed ^ 0x61646170)), // decorrelate from harness streams
		state:         StateNominal,
		deployedModel: opts.Model,
	}
	a.publishState()
	return a, nil
}

// State returns the current machine state (StateNominal on nil).
func (a *Adapter) State() State {
	if a == nil {
		return StateNominal
	}
	return a.state
}

// Stats returns the activity counters.
func (a *Adapter) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.stats
}

// NoteModelFallback reports that the supervisor entered fallback for a
// model-shaped reason (innovation/divergence alarm on clean sensors).
// It latches a trigger the state machine consumes on its next nominal
// epoch, subject to cooldown. During post-swap probation it
// is the probation verdict instead: the freshly swapped design just
// sent the supervisor back to the safe state, so the swap is undone.
func (a *Adapter) NoteModelFallback() {
	if a == nil {
		return
	}
	switch a.state {
	case StateNominal:
		a.pending = true
	case StateSwapped:
		a.revertPending = true
	}
}

// NoteGap reports that an epoch passed without a paired (telemetry,
// config) observation — an actuation hold or step failure — so the
// estimator's lag history is no longer contiguous and must restart.
func (a *Adapter) NoteGap() {
	if a == nil {
		return
	}
	a.est.gap()
}

// Advance runs one epoch of the adaptation loop. t is the (sanitized)
// telemetry of the finished epoch, proposed the configuration the
// control loop wants to issue next, and clean whether the telemetry is
// trustworthy (no sanitization, no dead channel). It returns the
// configuration to actually issue — the proposal, possibly carrying
// excitation dither — plus flight-recorder flags and the swap signal.
//
// While the machine is Nominal (or cooling down) Advance performs no
// heap allocation: the RLS shadow update and the trigger checks are the
// entire cost.
func (a *Adapter) Advance(t sim.Telemetry, proposed sim.Config, clean bool) Verdict {
	if a == nil {
		return Verdict{Cfg: proposed}
	}
	v := Verdict{Cfg: proposed}
	if a.cooldown > 0 {
		a.cooldown--
	}

	switch a.state {
	case StateNominal:
		if a.opts.Monitor.Level() == health.LevelFail {
			a.failStreak++
		} else {
			a.failStreak = 0
		}
		if a.cooldown == 0 && (a.pending || a.failStreak >= a.opts.FailStreak) {
			a.pending = false
			a.failStreak = 0
			a.attempts = 0
			a.stats.Triggers++
			if m := a.tel; m != nil {
				m.triggers.Inc()
			}
			a.toState(StateDrifted)
		}

	case StateDrifted:
		// One observable epoch between trigger and action. Skip the
		// excitation round only if recent data already pinned the
		// coefficients down.
		if a.est.excitation() <= a.opts.ExcitationGood {
			a.toState(StateRedesigning)
		} else {
			a.beginExcitation()
		}

	case StateExciting:
		if a.exciteLeft > 0 {
			v.Cfg = a.dither(proposed)
			v.Flags |= obs.FlagExcitation
			a.exciteLeft--
		}
		if a.exciteLeft == 0 {
			a.toState(StateRedesigning)
		}

	case StateRedesigning:
		cand, err := a.redesign()
		a.stats.Redesigns++
		if m := a.tel; m != nil {
			m.redesigns.Inc()
		}
		if err != nil {
			a.lastErr = err
			a.stats.DesignErrors++
			a.episodeFailed()
		} else {
			a.cand = cand
			a.toState(StateVerifying)
		}

	case StateVerifying:
		if a.verifyAndSwap(&v) {
			a.settleLeft = a.opts.SettleEpochs
			a.probLeft = a.opts.ProbationEpochs
			a.revertPending = false
			a.toState(StateSwapped)
		} else {
			a.stats.VerifyFailures++
			if m := a.tel; m != nil {
				m.verifyFailures.Inc()
			}
			a.episodeFailed()
		}
		a.cand = nil

	case StateSwapped:
		// Probation: the rebased monitor returning to its fail verdict —
		// or the supervisor reporting another model-shaped fallback — is
		// the closed loop's judgement that the swap made things worse.
		if a.probLeft > 0 {
			a.probLeft--
			if a.revertPending || a.opts.Monitor.Level() == health.LevelFail {
				a.revert(&v)
				break
			}
			if a.probLeft == 0 {
				// Probation passed: the swapped design is now the one a
				// future failed probation would revert to.
				a.deployedModel, a.deployedCtrlSS = a.pendModel, a.pendCtrlSS
				a.prevLQ = nil
			}
		}
		a.settleLeft--
		if a.settleLeft <= 0 && a.probLeft <= 0 {
			a.toState(StateNominal)
		}
	}

	a.feed(t, v.Cfg, clean)
	return v
}

// episodeFailed routes a failed redesign/verification: more excitation
// and another attempt while the budget lasts, then a give-up cooldown.
func (a *Adapter) episodeFailed() {
	a.attempts++
	if a.attempts < a.opts.MaxAttempts {
		a.beginExcitation()
		return
	}
	a.stats.GiveUps++
	if m := a.tel; m != nil {
		m.giveUps.Inc()
	}
	a.cooldown = a.opts.CooldownEpochs
	a.toState(StateNominal)
}

// beginExcitation schedules a PRBS dither round. Different hold times
// per knob keep the input channels from moving in lockstep (which
// would leave their columns collinear).
func (a *Adapter) beginExcitation() {
	n := a.opts.ExciteEpochs
	a.dFreq = sysid.PRBS(a.rng, n, a.opts.DitherHold, -1, 1)
	a.dCache = sysid.PRBS(a.rng, n, 2*a.opts.DitherHold+1, -1, 1)
	if a.nu == 3 {
		a.dROB = sysid.PRBS(a.rng, n, 3*a.opts.DitherHold+1, -1, 1)
	}
	a.dPos = 0
	a.exciteLeft = n
	a.toState(StateExciting)
}

// dither perturbs the proposed configuration by at most one index per
// knob, clamped to the legal range — low-amplitude by construction.
func (a *Adapter) dither(cfg sim.Config) sim.Config {
	i := a.dPos
	if i >= len(a.dFreq) {
		return cfg
	}
	a.dPos++
	cfg.FreqIdx = clampIdx(cfg.FreqIdx+sign(a.dFreq[i]), len(sim.FreqSettingsGHz))
	cfg.CacheIdx = clampIdx(cfg.CacheIdx+sign(a.dCache[i]), len(sim.CacheSettings))
	if a.nu == 3 {
		cfg.ROBIdx = clampIdx(cfg.ROBIdx+sign(a.dROB[i]), len(sim.ROBSettings))
	}
	a.stats.ExciteEpochs++
	if m := a.tel; m != nil {
		m.exciteEpochs.Inc()
	}
	return cfg
}

// feed streams one (telemetry, issued config) pair into the estimator,
// in the deviation coordinates of the deployed design.
func (a *Adapter) feed(t sim.Telemetry, cfg sim.Config, clean bool) {
	a.yScr[0] = t.IPS - a.base.Y0[0]
	a.yScr[1] = t.PowerW - a.base.Y0[1]
	a.uScr[0] = cfg.FreqGHz() - a.base.U0[0]
	a.uScr[1] = float64(cfg.L2Ways()) - a.base.U0[1]
	if a.nu == 3 {
		a.uScr[2] = float64(cfg.ROBEntries())/core.ROBUnit - a.base.U0[2]
	}
	a.est.observe(a.yScr[:a.ny], a.uScr[:a.nu], clean)
}

func (a *Adapter) toState(s State) {
	a.state = s
	a.publishState()
}

func (a *Adapter) publishState() {
	if m := a.tel; m != nil {
		m.state.Set(float64(a.state))
		m.excitation.Set(a.est.excitation())
	}
}

func sign(x float64) int {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
