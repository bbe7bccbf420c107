// Package supervisor implements the supervised controller runtime: a
// wrapper that turns any ArchController into a deployable one.
//
// The paper argues (§I, §VII) that formal MIMO control survives the
// "unexpected corner cases" that break hand-tuned heuristics — but the
// formal guarantees only hold while the controller's inputs are sane.
// A dead power meter, a glitched counter returning NaN, or a wedged
// DVFS regulator violates the assumptions behind the LQG design and
// its robust-stability certificate. Following the robust-provisioning
// literature (Makridis et al.; Chen et al.), this package treats fault
// detection and graceful degradation as part of the controller runtime:
//
//   - telemetry sanitization: NaN/Inf and out-of-physical-range sensor
//     readings never reach the inner controller; the last good reading
//     is substituted and a staleness counter tracks how long each
//     channel has been coasting,
//   - model-health monitoring: the Kalman innovation magnitude and the
//     tracking-error trend are watched for sustained divergence — the
//     signature of a plant that no longer matches the identified model,
//   - actuation supervision: failed Apply calls are retried with a
//     doubling backoff,
//   - safe-state fallback: under a dead sensor channel, a diverging
//     model, or sustained actuation failure, the supervisor abandons
//     the inner controller and pins the safe static configuration (the
//     paper's Baseline), the setting profiling found best without any
//     dynamic control,
//   - hysteretic re-engagement: only after telemetry and actuation have
//     been healthy for a sustained stretch is the inner controller
//     reset and re-engaged, so a flapping sensor cannot make the system
//     oscillate between modes.
package supervisor

import (
	"fmt"
	"math"

	"mimoctl/internal/adapt"
	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
)

// Mode is the supervisor's operating mode.
type Mode int

const (
	// ModeEngaged runs the inner controller on sanitized telemetry.
	ModeEngaged Mode = iota
	// ModeFallback pins the safe static configuration.
	ModeFallback
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == ModeFallback {
		return "fallback"
	}
	return "engaged"
}

// InnovationReporter is implemented by controllers that expose the
// Kalman innovation of their most recent step (core.MIMOController);
// the supervisor uses it as a model-health signal when available.
type InnovationReporter interface {
	LastInnovation() []float64
}

// HealthReporter is implemented by controllers that count absorbed
// internal errors (core.MIMOController); the supervisor folds those
// counters into its own health report.
type HealthReporter interface {
	Health() core.Health
}

// ApplyObserver is the supervisor's side-channel from the actuation
// harness: after each Apply attempt the harness reports the outcome, so
// the supervisor can retry transient failures and detect wedged
// actuators. Harnesses that never call it lose retry/fallback-on-apply
// coverage but everything else still works.
type ApplyObserver interface {
	ObserveApply(cfg sim.Config, err error)
}

// Options attaches the supervisor's optional collaborators. Its tuning
// is not an option: the constants below are the one configuration that
// runs.
type Options struct {
	// ModelHealth, when set, receives every engaged epoch's Kalman
	// innovation (internal/health): the guardband-consumption gauge and
	// stability-margin recompute run there and surface through the
	// loop's events (Event.Health, which obs.Fleet.Healthz reads) and
	// its telemetry scope. The monitor is also load-bearing for safety:
	// its fail verdict counts as a sick epoch (fallback after
	// fallbackAfter), and re-engagement is refused while the verdict
	// stands — a loop whose certificate is void must not be re-armed by
	// clean telemetry alone.
	ModelHealth *health.Monitor

	// Adapter, when set, closes the adaptation loop (internal/adapt):
	// every epoch's sanitized telemetry and issued configuration feed
	// its streaming re-identifier, a model-shaped fallback arms its
	// drift trigger, and an accepted redesign is hot-swapped into the
	// inner controller mid-run. The supervisor remains in charge of all
	// safety machinery; a nil Adapter (the default) changes nothing.
	Adapter *adapt.Adapter
}

// The supervisor's tuning, sized for the paper's 50 µs epoch and the
// A15-class plant in internal/sim.
const (
	// maxStaleEpochs is how long a channel may coast on substituted
	// readings before it is declared dead (2.5 ms).
	maxStaleEpochs = 50

	// innovationLimit is the threshold on the smoothed relative Kalman
	// innovation magnitude and innovationAlpha its EMA coefficient. Only
	// used when the inner controller reports its innovation.
	innovationLimit = 0.6
	innovationAlpha = 0.05

	// divergenceLimit is the threshold on the smoothed relative tracking
	// error and divergenceAlpha its EMA coefficient.
	divergenceLimit = 0.5
	divergenceAlpha = 0.02

	// graceEpochs suppresses the model-health alarms after engagement,
	// re-engagement, a target change or an adapter swap, while the
	// transient settles (20 ms).
	graceEpochs = 400

	// fallbackAfter is how many consecutive sick epochs (dead channel or
	// model-health alarm) trigger the fallback.
	fallbackAfter = 50

	// applyFallbackAfter is how many consecutive failed Apply attempts
	// while engaged trigger the fallback. Between them the retry backoff
	// doubles: retry, hold 1, retry, hold 2, and the sixth failure falls
	// back.
	applyFallbackAfter = 6

	// reengageAfter is how many consecutive healthy fallback epochs
	// (plausible telemetry and successful actuation) re-engage the inner
	// controller: the hysteresis that prevents mode flapping.
	reengageAfter = 150
)

// Physical plausibility bounds for the two sensors. Readings outside
// [min, max] are rejected and substituted: IPS in [0.01, 10] BIPS,
// power in [0.02, 12] W — generously wide for the A15-class core, but
// excluding hard zeros (dead sensor), 10x glitches, and non-physical
// values.
const (
	minIPS, maxIPS       float64 = 0.01, 10
	minPowerW, maxPowerW float64 = 0.02, 12
)

// modeState is everything the supervisor's mode decisions read, as one
// value: New, Reset, a fallback and a re-engagement each assign a whole
// one, and next is its one transition. A counter only compared with a
// threshold saturates there, so every field stays bounded.
type modeState struct {
	mode Mode
	// Sensing: consecutive implausible samples per channel, the epochs
	// left before the model-health alarms count, the run of sick epochs.
	staleIPS, stalePower, grace, sickStreak int
	// Actuation: the last reported apply succeeded, the run of failed
	// applies while engaged, the retry backoff, the epochs to hold before
	// the next retry, and a request since the loop (re-)engaged.
	applyOK                         bool
	failStreak, backoff, holdEpochs int
	haveRequested                   bool
	healthyStreak                   int // consecutive healthy fallback epochs
}

// event is the kind of input the mode machine takes: an epoch's sensing,
// an apply report, an adapter's swap or revert, or a target change.
type event uint8

const (
	evStep event = iota
	evApply
	evSwap
	evRevert
	evTarget
)

// input is one input class of the mode machine.
type input struct {
	ev             event
	ipsOK, powerOK bool // evStep: each channel's sample is plausible
	alarm          bool // evStep: a model-health alarm (armed epochs only)
	certOK         bool // evStep: the model-health certificate stands
	applied        bool // evApply: the apply succeeded
}

// action is what an evStep epoch issues.
type action uint8

const (
	actStep  action = iota // the inner controller's request
	actHold                // the plant's configuration, backing off
	actRetry               // the last request again
	actPin                 // the safe configuration
)

// engage is the state of a loop handed to a freshly reset inner
// controller: a full grace period and no actuation history. The
// channels' staleness carries over.
func (m *modeState) engage() modeState {
	return modeState{staleIPS: m.staleIPS, stalePower: m.stalePower, grace: graceEpochs, applyOK: true}
}

// pin is the state of a loop that has just fallen back: nothing is
// requested or held, the hysteresis counts from zero, the staleness and
// the last apply's outcome carry over, the grace is full.
func (m *modeState) pin() modeState {
	return modeState{mode: ModeFallback, staleIPS: m.staleIPS, stalePower: m.stalePower, grace: graceEpochs, applyOK: m.applyOK}
}

// dead reports whether a channel has coasted past maxStaleEpochs.
func (m *modeState) dead() bool { return m.staleIPS > maxStaleEpochs || m.stalePower > maxStaleEpochs }

// next is the mode machine: it advances the state by input in and
// returns, for evStep, what the epoch issues. It reads and writes the
// state alone; the Supervised methods act on the mode changes it makes.
func (m *modeState) next(in input) action {
	switch in.ev {
	case evTarget:
		m.grace = graceEpochs
	case evApply:
		m.applyOK = in.applied
		switch {
		case in.applied:
			m.failStreak, m.backoff, m.holdEpochs = 0, 0, 0
		case m.mode == ModeEngaged:
			if m.failStreak++; m.failStreak >= applyFallbackAfter {
				*m = m.pin()
			}
		}
	case evSwap, evRevert:
		if m.mode == ModeEngaged {
			// Fresh (or restored) gains produce a deliberate transient: the
			// grace mutes the alarms, and the sick streak keeps counting a
			// dead channel.
			m.grace = graceEpochs
		} else if in.ev == evSwap {
			// The pinned loop has nothing to settle: hand control back.
			*m = m.engage()
		}
	case evStep:
		m.staleIPS, m.stalePower = stale(m.staleIPS, in.ipsOK), stale(m.stalePower, in.powerOK)
		if m.mode == ModeFallback {
			m.healthyStreak = min(m.healthyStreak+1, reengageAfter)
			if !in.ipsOK || !in.powerOK || !m.applyOK {
				m.healthyStreak = 0
			}
			if m.healthyStreak >= reengageAfter && in.certOK {
				*m = m.engage()
			}
			return actPin
		}
		sick := m.dead() || (m.grace == 0 && in.alarm)
		m.grace = max(m.grace-1, 0)
		m.sickStreak++
		if !sick {
			m.sickStreak = 0
		}
		switch {
		case m.sickStreak >= fallbackAfter:
			*m = m.pin()
			return actPin
		case m.applyOK || !m.haveRequested:
			m.haveRequested = true
		case m.holdEpochs > 0:
			m.holdEpochs--
			return actHold
		default:
			m.backoff = max(1, 2*m.backoff)
			m.holdEpochs = m.backoff
			return actRetry
		}
	}
	return actStep
}

// stale advances a channel's count of consecutive implausible samples,
// saturating one past maxStaleEpochs.
func stale(n int, ok bool) int {
	if ok {
		return 0
	}
	return min(n+1, maxStaleEpochs+1)
}

// Health counts what the supervisor saw and did. All counters are
// cumulative since the last Reset.
type Health struct {
	// Epochs is the number of Step calls.
	Epochs int
	// SanitizedIPS / SanitizedPower count substituted sensor samples.
	SanitizedIPS, SanitizedPower int
	// DeadSensorEpochs counts epochs with a channel past its staleness
	// limit.
	DeadSensorEpochs int
	// InnovationAlarms / DivergenceAlarms count model-health alarm
	// epochs.
	InnovationAlarms, DivergenceAlarms int
	// ModelHealthAlarms counts epochs sick on the attached model-health
	// monitor's fail verdict (guardband exhausted / certificate lost).
	ModelHealthAlarms int
	// IllegalConfigs counts inner-controller outputs that failed
	// validation and were replaced by the current plant configuration.
	IllegalConfigs int
	// ApplyFailures counts failed Apply attempts reported via
	// ObserveApply; ApplyRetries counts re-issued requests.
	ApplyFailures, ApplyRetries int
	// Fallbacks / Reengagements count mode transitions;
	// FallbackEpochs counts epochs spent pinned at the safe config.
	Fallbacks, Reengagements int
	FallbackEpochs           int
	// InnerStepErrors snapshots the inner controller's absorbed-error
	// count (LQG step errors), when the inner reports health.
	InnerStepErrors int
}

// Supervised wraps an inner ArchController with the supervised runtime.
// It implements core.ArchController and ApplyObserver.
type Supervised struct {
	inner   core.ArchController
	monitor *health.Monitor // Options.ModelHealth (nil: none)
	adapter *adapt.Adapter  // Options.Adapter (nil: none)

	ipsTarget, powerTarget float64

	st     modeState
	health Health

	// The last plausible readings, substituted for implausible ones; the
	// model-health alarms' smoothed innovation and tracking error; the
	// last request, re-issued by a retry.
	goodIPS, goodPower, goodL1, goodL2 float64
	haveGood                           bool
	emaInnov, emaErr                   float64
	lastRequested                      sim.Config

	// The inner controller resolved once in New: as the MIMO controller
	// when it is one, which the engaged step calls and reads the
	// innovation of without interface dispatch, else as an
	// InnovationReporter when it reports one (both nil otherwise).
	mimo         *core.MIMOController
	innov        InnovationReporter
	innovScratch [2]float64

	// The flight recorder the supervisor writes every epoch's record to
	// (endEpoch), the instruments (no-ops when unbound) and the fleet
	// loop (nil: no per-epoch events).
	rec     *flightrec.Recorder
	tel     *supMetrics
	loopObs *obs.Loop
}

// New wraps the inner controller. The inner controller's current
// targets become the supervisor's.
func New(inner core.ArchController, opts Options) *Supervised {
	s := &Supervised{inner: inner, monitor: opts.ModelHealth, st: new(modeState).engage(), adapter: opts.Adapter, tel: unbound}
	s.mimo, _ = inner.(*core.MIMOController)
	s.innov, _ = inner.(InnovationReporter)
	s.ipsTarget, s.powerTarget = inner.Targets()
	return s
}

// Name implements core.ArchController. A supervisor that carries an
// adaptation loop reports as Adaptive: the closed loop's behavior under
// drift is qualitatively different.
func (s *Supervised) Name() string {
	if s.adapter != nil {
		return "Adaptive(" + s.inner.Name() + ")"
	}
	return "Supervised(" + s.inner.Name() + ")"
}

// Adapter exposes the attached adaptation loop (nil when none).
func (s *Supervised) Adapter() *adapt.Adapter { return s.adapter }

// Inner exposes the wrapped controller.
func (s *Supervised) Inner() core.ArchController { return s.inner }

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder. The supervisor is the one writer of a supervised loop's
// records: one per epoch, engaged or not, and a MIMO inner contributes
// its step's internals through core.MIMOController.FillInternals.
func (s *Supervised) SetFlightRecorder(r *flightrec.Recorder) { s.rec = r }

// Health returns the counters since the last Reset, including the
// inner controller's absorbed-error count when it reports one.
func (s *Supervised) Health() Health {
	h := s.health
	if hr, ok := s.inner.(HealthReporter); ok {
		h.InnerStepErrors = hr.Health().StepErrors
	}
	return h
}

// SetTargets implements core.ArchController. Non-finite targets are
// dropped here so they can never reach the inner controller. A target
// change restarts the alarm grace period: the transient toward a new
// reference looks exactly like divergence.
func (s *Supervised) SetTargets(ips, power float64) {
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		return
	}
	s.ipsTarget, s.powerTarget = ips, power
	s.inner.SetTargets(ips, power)
	s.transition(input{ev: evTarget})
}

// Targets implements core.ArchController.
func (s *Supervised) Targets() (float64, float64) { return s.ipsTarget, s.powerTarget }

// Reset implements core.ArchController.
func (s *Supervised) Reset() {
	s.inner.Reset()
	s.st = new(modeState).engage()
	s.health = Health{}
	s.haveGood = false
	s.emaInnov, s.emaErr = 0, 0
	s.tel.mode.Set(float64(ModeEngaged))
}

// ObserveApply implements ApplyObserver: the harness reports the
// outcome of each step's Apply, once per step. applyFallbackAfter
// consecutive failures while engaged force the safe-state fallback.
func (s *Supervised) ObserveApply(cfg sim.Config, err error) {
	if err != nil {
		count(&s.health.ApplyFailures, s.tel.applyFailures)
	}
	s.transition(input{ev: evApply, applied: err == nil})
}

// Step implements core.ArchController. Every epoch: sanitize the
// telemetry, update the health monitors, then either run the inner
// controller (engaged), wait out an actuation backoff, or pin the safe
// configuration (fallback). The epoch's event goes to the flight
// recorder and the fleet plane when they are attached.
func (s *Supervised) Step(t sim.Telemetry) sim.Config {
	var ev obs.Event
	cfg, publish := s.StepEvent(t, &ev)
	if publish {
		s.loopObs.Bus().Publish(&ev)
	}
	return cfg
}

// StepEvent is Step with the bus publish left to the caller. It fills
// ev with the epoch's record when a flight recorder or fleet loop is
// attached, folds it into the loop's fleet state, and reports whether
// ev must be published on the loop's bus: Step publishes it at once,
// internal/batch with the rest of the fleet's epoch in one batch.
func (s *Supervised) StepEvent(t sim.Telemetry, ev *obs.Event) (sim.Config, bool) {
	m := s.tel
	s.health.Epochs++
	if m.epochs != nil {
		m.epochs.Inc()
	}
	flags := obs.FlagSupervised | s.sanitize(&t)
	in := input{ev: evStep, ipsOK: flags&obs.FlagSanitizedIPS == 0, powerOK: flags&obs.FlagSanitizedPower == 0}
	clean := in.ipsOK && in.powerOK
	if !s.st.applyOK {
		flags |= obs.FlagApplyError
	}
	pinned := s.st.mode == ModeFallback
	if pinned {
		// The monitor sees no innovations in fallback, so its verdict is
		// frozen: a fallback on a model-health fail stays pinned until an
		// adapter's accepted redesign restores the certificate.
		in.certOK = s.monitor.Level() != health.LevelFail
	} else if s.st.grace == 0 {
		in.alarm = s.alarmed(&t) // armed: past the grace period
	}
	act := s.transition(in)
	dead := !pinned && s.st.dead()
	if dead {
		count(&s.health.DeadSensorEpochs, m.deadSensorEpochs)
	}

	switch act {
	case actPin:
		cfg := sim.BaselineConfig()
		switch {
		case pinned:
			count(&s.health.FallbackEpochs, m.fallbackEpochs)
			// The adaptation loop keeps running while pinned: dither around
			// the safe configuration is open-loop identification data, and
			// an accepted swap hands control straight back.
			cfg, flags = s.adapted(t, cfg, flags, clean)
		case s.adapter != nil:
			// A fallback forced by model-health alarms on live sensors is
			// the drift signature; a dead channel is not a modeling
			// problem and must not trigger re-identification.
			if !dead {
				s.adapter.NoteModelFallback()
			}
			s.adapter.NoteGap()
		}
		return cfg, s.endEpoch(&t, ev, cfg, flags|obs.FlagFallback, obs.ModeFallback, nil)
	case actHold, actRetry:
		// Held and re-issued epochs break the adapter's (u, y) pairing:
		// its estimator must restart its lag history.
		s.adapter.NoteGap()
		cfg := t.Config
		if act == actRetry {
			count(&s.health.ApplyRetries, m.applyRetries)
			cfg = s.lastRequested
		}
		return cfg, s.endEpoch(&t, ev, cfg, flags|obs.FlagHold, obs.ModeEngaged, nil)
	}

	var cfg sim.Config
	if s.mimo != nil {
		cfg = s.mimo.Step(t)
	} else {
		cfg = s.inner.Step(t)
	}
	innov := s.lastInnovation()
	if s.monitor != nil && len(innov) >= 2 {
		s.monitor.Observe(innov[0], innov[1])
	}
	if err := cfg.Validate(); err != nil {
		// An illegal request must never reach the hardware: hold the
		// plant's current (known legal) configuration instead.
		count(&s.health.IllegalConfigs, m.illegalConfigs)
		cfg = t.Config
		flags |= obs.FlagIllegalConfig
	}
	if s.adapter != nil {
		cfg, flags = s.adapted(t, cfg, flags, clean)
		// A swap or revert this epoch reset the inner's innovation (and
		// its excess, which endEpoch reads): the record shows the design
		// now installed.
		innov = s.lastInnovation()
	}
	s.lastRequested = cfg
	return cfg, s.endEpoch(&t, ev, cfg, flags, obs.ModeEngaged, innov)
}

// transition feeds one input to the mode machine and acts on the mode
// change it makes. A fallback dumps the flight ring while the fault-era
// records are still in it. A re-engagement resets the inner controller,
// whose estimator and integrators were fed fault-era data, and starts
// the alarm statistics afresh with the grace period.
func (s *Supervised) transition(in input) action {
	was := s.st.mode
	act := s.st.next(in)
	if s.st.mode == was {
		return act
	}
	if was == ModeEngaged {
		count(&s.health.Fallbacks, s.tel.toFallback)
		s.rec.RequestDump("supervisor-fallback")
	} else {
		s.inner.Reset()
		s.inner.SetTargets(s.ipsTarget, s.powerTarget)
		count(&s.health.Reengagements, s.tel.toEngaged)
		s.emaInnov, s.emaErr = 0, 0
	}
	s.tel.mode.Set(float64(s.st.mode))
	return act
}

// count adds one to a Health counter and to its instrument.
func count(n *int, c telemetry.Counter) {
	*n++
	c.Inc()
}

// adapted advances the adaptation loop (when attached) on the epoch's
// configuration and returns the configuration and flags it leaves. A hot
// swap or probation revert goes to the mode machine, and the alarm
// statistics learned under the outgoing design are forgotten.
func (s *Supervised) adapted(t sim.Telemetry, cfg sim.Config, flags uint32, clean bool) (sim.Config, uint32) {
	v := s.adapter.Advance(t, cfg, clean && s.st.applyOK)
	switch {
	case v.Swapped:
		s.rec.RequestDump("adapt-swap")
		s.transition(input{ev: evSwap})
	case v.Reverted:
		s.rec.RequestDump("adapt-revert")
		s.transition(input{ev: evRevert})
	default:
		return v.Cfg, flags | v.Flags
	}
	s.emaInnov, s.emaErr = 0, 0
	return v.Cfg, flags | v.Flags
}

// alarmed updates the model-health alarms of an armed epoch and reports
// whether any of them fires: the smoothed innovation, the smoothed
// tracking error, and the model-health monitor's fail verdict.
func (s *Supervised) alarmed(t *sim.Telemetry) bool {
	alarm := false
	if v := s.relInnovation(s.lastInnovation()); v >= 0 {
		s.emaInnov += innovationAlpha * (v - s.emaInnov)
		if s.emaInnov > innovationLimit {
			count(&s.health.InnovationAlarms, s.tel.innovationAlarms)
			alarm = true
		}
	}
	e := s.relError(t)
	if s.emaErr += divergenceAlpha * (e - s.emaErr); s.emaErr > divergenceLimit {
		count(&s.health.DivergenceAlarms, s.tel.divergenceAlarms)
		alarm = true
	}
	// A fail verdict means the observed mismatch has exhausted the
	// certified guardband: the stability certificate no longer covers the
	// plant, and engaged control on a void certificate is what the safe
	// state exists to prevent. (The monitor sees the previous epoch's
	// innovation; the one-epoch skew is irrelevant at fallbackAfter's
	// timescale.)
	if s.monitor.Level() == health.LevelFail {
		count(&s.health.ModelHealthAlarms, s.tel.modelHealthAlarms)
		alarm = true
	}
	return alarm
}

// lastInnovation returns the inner controller's most recent innovation,
// nil when it reports none. Allocation-free for a MIMO inner: the slice
// aliases s.innovScratch and is valid until the next call. Other
// InnovationReporter inners fall back to LastInnovation.
func (s *Supervised) lastInnovation() []float64 {
	if s.mimo != nil {
		return s.mimo.LastInnovationInto(s.innovScratch[:0])
	}
	if s.innov != nil {
		return s.innov.LastInnovation()
	}
	return nil
}

// sanitize replaces implausible sensor readings with the last good ones
// (or the targets before any good reading exists). It returns the
// FlagSanitized bits of the channels whose raw sample was implausible.
func (s *Supervised) sanitize(t *sim.Telemetry) (flags uint32) {
	ipsOK := plausible(t.IPS, minIPS, maxIPS)
	powerOK := plausible(t.PowerW, minPowerW, maxPowerW)
	t.IPS = s.substitute(t.IPS, ipsOK, &s.goodIPS, s.ipsTarget)
	t.PowerW = s.substitute(t.PowerW, powerOK, &s.goodPower, s.powerTarget)
	if !ipsOK {
		count(&s.health.SanitizedIPS, s.tel.sanitizedIPS)
		flags |= obs.FlagSanitizedIPS
	}
	if !powerOK {
		count(&s.health.SanitizedPower, s.tel.sanitizedPower)
		flags |= obs.FlagSanitizedPower
	}
	s.haveGood = s.haveGood || (ipsOK && powerOK)
	// Cache miss counters feed the heuristic's ranking rules; a corrupt
	// counter must not poison them either.
	t.L1MPKI, t.L2MPKI = lastGood(t.L1MPKI, &s.goodL1), lastGood(t.L2MPKI, &s.goodL2)
	return flags
}

// substitute returns v when plausible (kept in *good), else the last
// good reading, or target until both sensors have read plausible.
func (s *Supervised) substitute(v float64, ok bool, good *float64, target float64) float64 {
	if ok {
		*good = v
		return v
	}
	if s.haveGood {
		return *good
	}
	return target
}

// lastGood returns v when it is a valid miss count, else the last one.
func lastGood(v float64, good *float64) float64 {
	if finite(v) && v >= 0 {
		*good = v
	}
	return *good
}

// relInnovation maps the inner controller's innovation vector [IPS, W]
// to a relative magnitude against the targets; -1 when unavailable.
func (s *Supervised) relInnovation(innov []float64) float64 {
	if len(innov) < 2 {
		return -1
	}
	iScale := math.Max(s.ipsTarget, 0.5)
	pScale := math.Max(s.powerTarget, 0.5)
	v := math.Max(math.Abs(innov[0])/iScale, math.Abs(innov[1])/pScale)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// A corrupted estimator state is itself a divergence signal.
		return 10 * innovationLimit
	}
	return v
}

// relError is the instantaneous relative tracking error of the
// sanitized measurements against the targets (worst channel).
func (s *Supervised) relError(t *sim.Telemetry) float64 {
	e := 0.0
	if s.ipsTarget > 0 {
		e = math.Abs(t.IPS-s.ipsTarget) / s.ipsTarget
	}
	if s.powerTarget > 0 {
		if ep := math.Abs(t.PowerW-s.powerTarget) / s.powerTarget; ep > e {
			e = ep
		}
	}
	return e
}

// Nominal reports whether the supervisor is on the nominal engaged
// path: engaged mode and healthy actuation, hence no retry or backoff
// in flight. internal/batch reports a loop off this path as parked.
func (s *Supervised) Nominal() bool { return s.st.mode == ModeEngaged && s.st.applyOK }

// String summarizes the supervisor state for logs.
func (s *Supervised) String() string {
	h := s.Health()
	return fmt.Sprintf("%s mode=%s fallbacks=%d reengagements=%d sanitized=%d/%d applyFailures=%d",
		s.Name(), s.st.mode, h.Fallbacks, h.Reengagements, h.SanitizedIPS, h.SanitizedPower, h.ApplyFailures)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func plausible(v, lo, hi float64) bool { return finite(v) && v >= lo && v <= hi }

var _ core.ArchController = (*Supervised)(nil)
var _ ApplyObserver = (*Supervised)(nil)
