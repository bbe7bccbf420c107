package supervisor

import (
	"math"

	"mimoctl/internal/adapt"
	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
)

// The two constants the mode machine dropped because neither binds
// (TestModeWalk): the backoff cap and the minimum fallback dwell.
const (
	refApplyBackoffLimit = 8
	refMinFallbackEpochs = 100
)

// refSupervised is the supervisor as it was before its mode logic became
// one transition over a modeState value (modeState.next): mode,
// staleness, grace, streaks, backoff and holds are separate fields that
// StepEvent, ObserveApply, SetTargets, enterFallback and reengage update
// in place, with a minimum fallback dwell and a backoff cap.
// TestModeMachineMatchesReference steps it in lockstep with Supervised
// and requires the same configurations, events, Health and Nominal on
// every epoch.
type refSupervised struct {
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

func newRef(inner core.ArchController, opts Options) *refSupervised {
	s := &refSupervised{inner: inner, monitor: opts.ModelHealth, applyOK: true, adapter: opts.Adapter}
	s.mimo, _ = inner.(*core.MIMOController)
	s.innov, _ = inner.(InnovationReporter)
	s.ipsTarget, s.powerTarget = inner.Targets()
	s.grace = graceEpochs
	return s
}

func (s *refSupervised) Health() Health {
	h := s.health
	if hr, ok := s.inner.(HealthReporter); ok {
		h.InnerStepErrors = hr.Health().StepErrors
	}
	return h
}

func (s *refSupervised) SetTargets(ips, power float64) {
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		return
	}
	s.ipsTarget, s.powerTarget = ips, power
	s.inner.SetTargets(ips, power)
	s.grace = graceEpochs
}

func (s *refSupervised) Reset() {
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

func (s *refSupervised) ObserveApply(cfg sim.Config, err error) {
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

func (s *refSupervised) StepEvent(t sim.Telemetry, ev *obs.Event) (sim.Config, bool) {
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
		if s.fallbackEpochs >= refMinFallbackEpochs && s.healthyStreak >= reengageAfter &&
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
		} else if s.backoff < refApplyBackoffLimit {
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

func (s *refSupervised) modelCertOK() bool {
	return s.monitor.Level() != health.LevelFail
}

func (s *refSupervised) lastInnovation() []float64 {
	if s.mimo != nil {
		return s.mimo.LastInnovationInto(s.innovScratch[:0])
	}
	if s.innov != nil {
		return s.innov.LastInnovation()
	}
	return nil
}

func (s *refSupervised) sanitize(t *sim.Telemetry, m *supMetrics) (cleanIPS, cleanPower bool) {
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

func (s *refSupervised) relInnovation(innov []float64) float64 {
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

func (s *refSupervised) relError(t sim.Telemetry) float64 {
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

func (s *refSupervised) enterFallback() {
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

func (s *refSupervised) reengage() {
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

func (s *refSupervised) Nominal() bool {
	return s.mode == ModeEngaged && s.applyOK &&
		s.failStreak == 0 && s.backoff == 0 && s.holdEpochs == 0
}

func (s *refSupervised) endEpoch(t *sim.Telemetry, ev *obs.Event, req sim.Config, flags uint32, mode uint8, innov []float64) bool {
	if s.rec == nil && s.loopObs == nil {
		return false
	}
	// Every field is written: ev may be a reused slot.
	nan := math.NaN()
	ev.Epoch, ev.LoopID = 0, 0
	ev.Flags, ev.Mode, ev.Health, ev.Adapt = flags, mode, uint8(s.monitor.Level()), 0
	ev.IPSTarget, ev.PowerTarget = s.ipsTarget, s.powerTarget
	ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW = t.IPS, t.PowerW, t.TrueIPS, t.TruePowerW
	ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm = nan, nan, nan
	ev.ExcessNorm, ev.Guardband, ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries = nan, nan, nan, nan, nan
	ev.ReqFreq, ev.ReqCache, ev.ReqROB = int16(req.FreqIdx), int16(req.CacheIdx), int16(req.ROBIdx)
	ev.CfgFreq, ev.CfgCache, ev.CfgROB = int16(t.Config.FreqIdx), int16(t.Config.CacheIdx), int16(t.Config.ROBIdx)
	if v := s.relInnovation(innov); v >= 0 {
		ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm = innov[0], innov[1], v
	}
	if s.mimo != nil && innov != nil {
		s.mimo.FillInternals(ev)
	}
	if s.monitor != nil {
		ev.Guardband = s.monitor.Snapshot().GuardbandConsumption
	}
	if s.adapter != nil {
		ev.Adapt = uint8(s.adapter.State())
	}
	s.rec.Append(ev)
	return s.loopObs.ObserveInto(ev)
}
