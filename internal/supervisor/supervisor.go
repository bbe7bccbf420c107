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
//   - actuation supervision: failed Apply calls are retried with
//     bounded exponential backoff,
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
	// trigger the fallback; applyBackoffLimit caps the exponential
	// backoff between Apply retries, in epochs.
	applyFallbackAfter = 6
	applyBackoffLimit  = 8

	// reengageAfter is how many consecutive healthy epochs (plausible
	// telemetry and successful actuation) re-engage the inner
	// controller; minFallbackEpochs is the shortest stay in fallback.
	// Together they are the hysteresis that prevents mode flapping.
	reengageAfter     = 150
	minFallbackEpochs = 100
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

	ipsTarget, powerTarget float64

	mode   Mode
	health Health

	// Sanitization state.
	goodIPS, goodPower   float64
	haveGood             bool
	staleIPS, stalePower int
	goodL1, goodL2       float64

	// Model-health state.
	grace      int
	emaInnov   float64
	emaErr     float64
	sickStreak int

	// Actuation state.
	applyOK       bool
	failStreak    int
	backoff       int
	holdEpochs    int
	lastRequested sim.Config
	haveRequested bool

	// Fallback/hysteresis state.
	fallbackEpochs int
	healthyStreak  int

	// Flight recording: the supervisor writes every epoch's record, the
	// one it also hands the fleet loop (endEpoch).
	rec *flightrec.Recorder

	// The inner controller resolved once in New: as the MIMO controller
	// when it is one, which the engaged step calls and reads the
	// innovation of without interface dispatch, else as an
	// InnovationReporter when it reports one (both nil otherwise).
	mimo         *core.MIMOController
	innov        InnovationReporter
	innovScratch [2]float64

	// Adaptation (nil when Options.Adapter was not set).
	adapter *adapt.Adapter

	// Instrument binding (nil: unbound) and fleet observability handle
	// (nil: no per-epoch events).
	tel     *supMetrics
	loopObs *obs.Loop
}

// New wraps the inner controller. The inner controller's current
// targets become the supervisor's.
func New(inner core.ArchController, opts Options) *Supervised {
	s := &Supervised{inner: inner, monitor: opts.ModelHealth, applyOK: true, adapter: opts.Adapter}
	s.mimo, _ = inner.(*core.MIMOController)
	s.innov, _ = inner.(InnovationReporter)
	s.ipsTarget, s.powerTarget = inner.Targets()
	s.grace = graceEpochs
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
// recorder. Implements flightrec.Recordable. The supervisor writes one
// record per epoch, engaged or not; the inner controller is left
// alone, and a MIMO inner contributes its step's internals through
// core.MIMOController.FillInternals.
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
	s.grace = graceEpochs
}

// Targets implements core.ArchController.
func (s *Supervised) Targets() (float64, float64) { return s.ipsTarget, s.powerTarget }

// Reset implements core.ArchController.
func (s *Supervised) Reset() {
	s.inner.Reset()
	s.mode = ModeEngaged
	s.health = Health{}
	s.haveGood = false
	s.staleIPS, s.stalePower = 0, 0
	s.grace = graceEpochs
	s.emaInnov, s.emaErr = 0, 0
	s.sickStreak = 0
	s.applyOK = true
	s.failStreak, s.backoff, s.holdEpochs = 0, 0, 0
	s.haveRequested = false
	s.fallbackEpochs, s.healthyStreak = 0, 0
	if m := s.tel; m != nil {
		m.mode.Set(float64(ModeEngaged))
	}
}

// ObserveApply implements ApplyObserver: the harness reports the
// outcome of each Apply attempt. applyFallbackAfter consecutive
// failures force the safe-state fallback.
func (s *Supervised) ObserveApply(cfg sim.Config, err error) {
	if err == nil {
		s.applyOK = true
		s.failStreak = 0
		s.backoff = 0
		s.holdEpochs = 0
		return
	}
	s.applyOK = false
	s.health.ApplyFailures++
	if m := s.tel; m != nil {
		m.applyFailures.Inc()
	}
	s.failStreak++
	if s.mode == ModeEngaged && s.failStreak >= applyFallbackAfter {
		s.enterFallback()
	}
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
	if m != nil && m.epochs != nil {
		m.epochs.Inc()
	}
	ipsOK, powerOK := s.sanitize(&t, m)
	clean := ipsOK && powerOK
	flags := obs.FlagSupervised
	if !ipsOK {
		flags |= obs.FlagSanitizedIPS
	}
	if !powerOK {
		flags |= obs.FlagSanitizedPower
	}
	if !s.applyOK {
		flags |= obs.FlagApplyError
	}

	if s.mode == ModeFallback {
		s.health.FallbackEpochs++
		if m != nil {
			m.fallbackEpochs.Inc()
		}
		s.fallbackEpochs++
		if clean && s.applyOK {
			s.healthyStreak++
		} else {
			s.healthyStreak = 0
		}
		if s.fallbackEpochs >= minFallbackEpochs && s.healthyStreak >= reengageAfter &&
			s.modelCertOK() {
			s.reengage()
		}
		cfg := sim.BaselineConfig()
		if s.adapter != nil {
			// The adaptation loop keeps running while pinned: dither
			// around the safe configuration is open-loop identification
			// data, and an accepted swap hands control straight back —
			// the pinned loop has nothing to settle.
			v := s.adapter.Advance(t, cfg, clean && s.applyOK)
			cfg = v.Cfg
			flags |= v.Flags
			if v.Swapped {
				s.rec.RequestDump("adapt-swap")
				if s.mode == ModeFallback {
					s.reengage()
				}
			} else if v.Reverted {
				// A probation revert while pinned: the monitor was rebased
				// onto the restored design, so the normal healthy-streak
				// hysteresis decides when to re-engage it.
				s.rec.RequestDump("adapt-revert")
			}
		}
		return cfg, s.endEpoch(&t, ev, cfg, flags|obs.FlagFallback, obs.ModeFallback, nil)
	}

	// Engaged: dead-channel and model-health checks.
	sick := false
	dead := false
	if s.staleIPS > maxStaleEpochs || s.stalePower > maxStaleEpochs {
		s.health.DeadSensorEpochs++
		if m != nil {
			m.deadSensorEpochs.Inc()
		}
		sick = true
		dead = true
	}
	if s.grace > 0 {
		s.grace--
	} else {
		if v := s.relInnovation(s.lastInnovation()); v >= 0 {
			s.emaInnov += innovationAlpha * (v - s.emaInnov)
			if s.emaInnov > innovationLimit {
				s.health.InnovationAlarms++
				if m != nil {
					m.innovationAlarms.Inc()
				}
				sick = true
			}
		}
		e := s.relError(t)
		s.emaErr += divergenceAlpha * (e - s.emaErr)
		if s.emaErr > divergenceLimit {
			s.health.DivergenceAlarms++
			if m != nil {
				m.divergenceAlarms.Inc()
			}
			sick = true
		}
		// The model-health monitor's verdict is a supervisor alarm in its
		// own right: a fail level means the observed mismatch has exhausted
		// the certified guardband, so the loop's stability certificate no
		// longer covers the plant it is actually driving — engaged control
		// on a voided certificate is exactly what the safe state exists to
		// prevent. (The monitor sees the previous epoch's innovation; the
		// one-epoch skew is irrelevant at fallbackAfter's timescale.)
		if s.monitor.Level() == health.LevelFail {
			s.health.ModelHealthAlarms++
			if m != nil {
				m.modelHealthAlarms.Inc()
			}
			sick = true
		}
	}
	if sick {
		s.sickStreak++
	} else {
		s.sickStreak = 0
	}
	if s.sickStreak >= fallbackAfter {
		s.enterFallback()
		if s.adapter != nil {
			// A fallback forced by model-health alarms on live sensors is
			// the drift signature; a dead channel is not a modeling
			// problem and must not trigger re-identification.
			if !dead {
				s.adapter.NoteModelFallback()
			}
			s.adapter.NoteGap()
		}
		return sim.BaselineConfig(), s.endEpoch(&t, ev, sim.BaselineConfig(), flags|obs.FlagFallback, obs.ModeFallback, nil)
	}

	// Actuation retry with bounded exponential backoff: after a failed
	// Apply, hold the plant's current configuration for the backoff
	// interval, then re-issue the last request.
	if !s.applyOK && s.haveRequested {
		// Held/re-issued epochs break the adapter's (u, y) pairing: its
		// estimator must restart its lag history.
		s.adapter.NoteGap()
		if s.holdEpochs > 0 {
			s.holdEpochs--
			return t.Config, s.endEpoch(&t, ev, t.Config, flags|obs.FlagHold, obs.ModeEngaged, nil)
		}
		s.health.ApplyRetries++
		if m != nil {
			m.applyRetries.Inc()
		}
		if s.backoff == 0 {
			s.backoff = 1
		} else if s.backoff < applyBackoffLimit {
			s.backoff *= 2
		}
		s.holdEpochs = s.backoff
		return s.lastRequested, s.endEpoch(&t, ev, s.lastRequested, flags|obs.FlagHold, obs.ModeEngaged, nil)
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
		s.health.IllegalConfigs++
		if m != nil {
			m.illegalConfigs.Inc()
		}
		cfg = t.Config
		flags |= obs.FlagIllegalConfig
	}
	if s.adapter != nil {
		v := s.adapter.Advance(t, cfg, clean && s.applyOK)
		cfg = v.Cfg
		flags |= v.Flags
		if v.Swapped || v.Reverted {
			// Fresh gains (or restored ones) produce a deliberate
			// transient: restart the alarm grace period and forget
			// loop-shape statistics learned under the outgoing design,
			// exactly as on re-engagement.
			s.grace = graceEpochs
			s.emaInnov, s.emaErr = 0, 0
			s.sickStreak = 0
			if v.Swapped {
				s.rec.RequestDump("adapt-swap")
			} else {
				s.rec.RequestDump("adapt-revert")
			}
		}
	}
	s.lastRequested = cfg
	s.haveRequested = true
	if s.adapter != nil {
		// A swap or revert this epoch reset the inner's innovation (and
		// its excess, which endEpoch reads): the record shows the design
		// now installed.
		innov = s.lastInnovation()
	}
	return cfg, s.endEpoch(&t, ev, cfg, flags, obs.ModeEngaged, innov)
}

// modelCertOK reports whether the model-health monitor permits
// re-engagement. In fallback the inner controller does not step, so the
// monitor receives no innovations and its last verdict is frozen: a
// fallback entered on a model-health fail therefore stays pinned until
// something restores the certificate. With an adapter attached that is
// an accepted redesign (the swap rebases the monitor and re-engages);
// without one the pin is permanent — the pre-adaptation behavior of a
// drifted plant.
func (s *Supervised) modelCertOK() bool {
	return s.monitor.Level() != health.LevelFail
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
// (or the targets before any good reading exists) and maintains the
// per-channel staleness counters. It reports per channel whether the
// raw sample was plausible.
func (s *Supervised) sanitize(t *sim.Telemetry, m *supMetrics) (cleanIPS, cleanPower bool) {
	ipsOK := plausible(t.IPS, minIPS, maxIPS)
	powerOK := plausible(t.PowerW, minPowerW, maxPowerW)
	if ipsOK {
		s.goodIPS = t.IPS
		s.staleIPS = 0
	} else {
		s.health.SanitizedIPS++
		if m != nil {
			m.sanitizedIPS.Inc()
		}
		s.staleIPS++
		if s.haveGood {
			t.IPS = s.goodIPS
		} else {
			t.IPS = s.ipsTarget
		}
	}
	if powerOK {
		s.goodPower = t.PowerW
		s.stalePower = 0
	} else {
		s.health.SanitizedPower++
		if m != nil {
			m.sanitizedPower.Inc()
		}
		s.stalePower++
		if s.haveGood {
			t.PowerW = s.goodPower
		} else {
			t.PowerW = s.powerTarget
		}
	}
	if ipsOK && powerOK {
		s.haveGood = true
	}
	// Cache miss counters feed the heuristic's ranking rules; a corrupt
	// counter must not poison them either.
	if finite(t.L1MPKI) && t.L1MPKI >= 0 {
		s.goodL1 = t.L1MPKI
	} else {
		t.L1MPKI = s.goodL1
	}
	if finite(t.L2MPKI) && t.L2MPKI >= 0 {
		s.goodL2 = t.L2MPKI
	} else {
		t.L2MPKI = s.goodL2
	}
	return ipsOK, powerOK
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
func (s *Supervised) relError(t sim.Telemetry) float64 {
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

func (s *Supervised) enterFallback() {
	s.mode = ModeFallback
	s.health.Fallbacks++
	if m := s.tel; m != nil {
		m.toFallback.Inc()
		m.mode.Set(float64(ModeFallback))
	}
	// Preserve the evidence: dump the ring the moment the loop gives up,
	// while the fault-era records are still in it.
	s.rec.RequestDump("supervisor-fallback")
	s.fallbackEpochs = 0
	s.healthyStreak = 0
	s.sickStreak = 0
	s.holdEpochs = 0
	s.haveRequested = false
}

// reengage resets the inner controller — its estimator and integrators
// were fed fault-era data — and hands control back with a fresh grace
// period.
func (s *Supervised) reengage() {
	s.inner.Reset()
	s.inner.SetTargets(s.ipsTarget, s.powerTarget)
	s.mode = ModeEngaged
	s.health.Reengagements++
	if m := s.tel; m != nil {
		m.toEngaged.Inc()
		m.mode.Set(float64(ModeEngaged))
	}
	s.grace = graceEpochs
	s.emaInnov, s.emaErr = 0, 0
	s.sickStreak = 0
	s.applyOK = true
	s.failStreak, s.backoff, s.holdEpochs = 0, 0, 0
	s.haveRequested = false
}

// Nominal reports whether the supervisor is on the nominal engaged
// path: engaged mode, healthy actuation, and no retry or backoff in
// flight. internal/batch reports a loop off this path as parked.
func (s *Supervised) Nominal() bool {
	return s.mode == ModeEngaged && s.applyOK &&
		s.failStreak == 0 && s.backoff == 0 && s.holdEpochs == 0
}

// String summarizes the supervisor state for logs.
func (s *Supervised) String() string {
	h := s.Health()
	return fmt.Sprintf("%s mode=%s fallbacks=%d reengagements=%d sanitized=%d/%d applyFailures=%d",
		s.Name(), s.mode, h.Fallbacks, h.Reengagements, h.SanitizedIPS, h.SanitizedPower, h.ApplyFailures)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func plausible(v, lo, hi float64) bool { return finite(v) && v >= lo && v <= hi }

var _ core.ArchController = (*Supervised)(nil)
var _ ApplyObserver = (*Supervised)(nil)
