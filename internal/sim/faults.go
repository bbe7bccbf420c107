package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// This file implements the fault model: a composable FaultInjector that
// wraps a Processor and corrupts its sensor readings and actuations in
// scripted or stochastic ways. The paper's core robustness claim (§I,
// §VII) is that formal MIMO control survives "unexpected corner cases";
// the injector makes those corner cases first-class, reproducible
// objects instead of ad-hoc test closures, so the supervised runtime
// (internal/supervisor) and the fault-sweep experiment can exercise
// identical failure scenarios across controller families.

// Channel selects which sensor a fault corrupts.
type Channel int

const (
	// ChAll corrupts every sensor channel.
	ChAll Channel = iota
	// ChIPS corrupts the performance counter reading.
	ChIPS
	// ChPower corrupts the power meter reading.
	ChPower
)

// SensorFaultKind enumerates the sensor failure modes.
type SensorFaultKind int

const (
	// FaultDropout makes the sensor read zero (a dead counter or meter).
	FaultDropout SensorFaultKind = iota
	// FaultFreeze holds the reading at the value reported on the epoch
	// the fault first fires (a stuck register).
	FaultFreeze
	// FaultSpike multiplies the reading by Magnitude (default 10), the
	// classic glitched-sample outlier.
	FaultSpike
	// FaultDrift adds a cumulative bias of Magnitude per active epoch
	// (a decalibrating sensor).
	FaultDrift
	// FaultNaN makes the sensor report NaN (a failed ADC conversion).
	FaultNaN
	// FaultInf makes the sensor report +Inf (an overflowed counter).
	FaultInf
)

// SensorFault describes one sensor failure scenario. The fault is active
// on epochs From <= k < Until (Until <= 0 means open-ended); within the
// window it fires every epoch unless thinned by Every (fire only when
// (k-From)%Every == 0) or gated by Prob (independent per-epoch firing
// probability drawn from the injector's deterministic seed).
type SensorFault struct {
	Kind    SensorFaultKind
	Channel Channel
	// From and Until bound the active epoch window, [From, Until).
	From, Until int
	// Every fires the fault on every Every-th epoch of the window
	// (0 or 1 = every epoch). Scripted periodic glitches.
	Every int
	// Prob gates each firing with an independent coin flip (<= 0 or
	// >= 1 = always fire). Stochastic faults.
	Prob float64
	// Magnitude parameterizes the kind: spike gain (default 10) or
	// per-epoch drift bias in the channel's physical units.
	Magnitude float64
}

// ActuatorFaultKind enumerates the actuation failure modes.
type ActuatorFaultKind int

const (
	// ActStuck silently ignores writes to one knob: the setting stays
	// at whatever the plant currently has (a wedged DVFS regulator or
	// way-gating driver).
	ActStuck ActuatorFaultKind = iota
	// ActError makes Apply return a transient error without changing
	// anything (a rejected actuation command).
	ActError
	// ActDelay defers the requested configuration by DelayEpochs
	// epochs before it lands (a slow actuation queue).
	ActDelay
)

// Knob selects which actuator a fault affects.
type Knob int

const (
	// KnobAll affects every knob.
	KnobAll Knob = iota
	// KnobFreq affects the DVFS setting.
	KnobFreq
	// KnobCache affects the cache-way setting.
	KnobCache
	// KnobROB affects the ROB-size setting.
	KnobROB
)

// ActuatorFault describes one actuation failure scenario; windowing and
// gating work exactly as for SensorFault.
type ActuatorFault struct {
	Kind ActuatorFaultKind
	// Knob selects the affected actuator for ActStuck.
	Knob        Knob
	From, Until int
	Every       int
	Prob        float64
	// DelayEpochs is the actuation latency for ActDelay (default 1).
	DelayEpochs int
}

// PlantFaultKind enumerates slow physical degradations of the plant
// itself — not of its sensors. A drifting plant still reports honest
// telemetry; what changes is the true input/output behavior the
// identified model no longer describes. This is the failure mode the
// adaptation loop (internal/adapt) exists for: sensor faults call for
// sanitization and fallback, plant drift calls for re-identification.
type PlantFaultKind int

const (
	// PlantGainDrift multiplies the true outputs by per-channel gains
	// that ramp from 1 toward GainLimitIPS/GainLimitPower at
	// GainRateIPS/GainRatePower per epoch — aging silicon, a degrading
	// voltage regulator, progressive thermal derating. The drift
	// persists after the window closes: physical aging does not heal.
	PlantGainDrift PlantFaultKind = iota
	// PlantLagDrift blends each true output with its own lagged value
	// through a first-order filter whose pole ramps from 0 toward
	// PoleLimit at PoleRate per epoch: the plant's response slows down,
	// a dynamics change no static gain correction can absorb.
	PlantLagDrift
)

// PlantFault describes one plant degradation scenario. The drift
// advances on epochs From <= k < Until and the accumulated degradation
// keeps applying forever after (Until only bounds how far it progresses,
// not how long it lasts). Probabilistic gating makes no sense for a
// physical aging process, so there are no Every/Prob fields.
type PlantFault struct {
	Kind        PlantFaultKind
	From, Until int
	// Gain drift: per-epoch additive change of the multiplicative gain,
	// clamped at the limit (e.g. Rate 1e-4 toward Limit 0.65). A limit
	// of 0 means "no drift on this channel" and is replaced by 1.
	GainRateIPS, GainLimitIPS     float64
	GainRatePower, GainLimitPower float64
	// Lag drift: per-epoch pole increment and terminal pole in (0, 1).
	PoleRate, PoleLimit float64
}

// plantState is the per-fault accumulated degradation.
type plantState struct {
	gain    [2]float64 // multiplicative output gains, start at 1
	pole    float64    // first-order lag pole, starts at 0
	lag     [2]float64 // lag filter state (true-output coordinates)
	lagInit bool
}

// ActuatorError is the error returned by FaultInjector.Apply when an
// ActError fault fires, so callers can distinguish injected transients
// from genuine configuration errors.
type ActuatorError struct{ Epoch int }

// Error implements error.
func (e *ActuatorError) Error() string {
	return fmt.Sprintf("sim: injected actuator failure at epoch %d", e.Epoch)
}

// FaultCounts tallies what the injector actually did, for assertions and
// reports.
type FaultCounts struct {
	// SensorHits counts corrupted sensor samples (per firing, per
	// channel touched).
	SensorHits int
	// ApplyErrors counts Apply calls failed by ActError.
	ApplyErrors int
	// StuckWrites counts knob writes discarded by ActStuck.
	StuckWrites int
	// DelayedApplies counts configurations deferred by ActDelay.
	DelayedApplies int
	// PlantDriftEpochs counts epochs on which a plant fault advanced its
	// degradation (not epochs it merely kept applying).
	PlantDriftEpochs int
}

// FaultInjector wraps a Processor with a scripted/stochastic fault
// model. It mirrors the processor's control surface — Apply then Step,
// once per epoch — so any closed-loop harness can substitute it for the
// bare plant. All randomness comes from the injector's own seeded
// generator, independent of the plant's, so a fault scenario is
// reproducible on any substrate.
type FaultInjector struct {
	proc   *Processor
	rng    *rand.Rand
	sensor []SensorFault
	act    []ActuatorFault
	plant  []PlantFault

	epoch  int
	counts FaultCounts

	// Per-fault freeze/drift state, indexed like sensor.
	frozen    []([2]float64) // captured readings per freeze fault
	hasFrozen []bool
	drift     [][2]float64 // accumulated bias per drift fault

	// Per-fault plant degradation state, indexed like plant.
	plantSt []plantState

	// Delayed actuations not yet landed.
	pending []delayedApply
}

type delayedApply struct {
	due int
	cfg Config
}

// NewFaultInjector wraps the processor. The seed drives only the
// injector's stochastic gating (Prob fields).
func NewFaultInjector(p *Processor, seed int64) *FaultInjector {
	return &FaultInjector{proc: p, rng: rand.New(rand.NewSource(seed))}
}

// AddSensorFault arms a sensor failure scenario and returns the injector
// for chaining.
func (f *FaultInjector) AddSensorFault(sf SensorFault) *FaultInjector {
	if sf.Kind == FaultSpike && sf.Magnitude == 0 {
		sf.Magnitude = 10
	}
	f.sensor = append(f.sensor, sf)
	f.frozen = append(f.frozen, [2]float64{})
	f.hasFrozen = append(f.hasFrozen, false)
	f.drift = append(f.drift, [2]float64{})
	return f
}

// AddActuatorFault arms an actuation failure scenario and returns the
// injector for chaining.
func (f *FaultInjector) AddActuatorFault(af ActuatorFault) *FaultInjector {
	if af.Kind == ActDelay && af.DelayEpochs <= 0 {
		af.DelayEpochs = 1
	}
	f.act = append(f.act, af)
	return f
}

// AddPlantFault arms a plant degradation scenario and returns the
// injector for chaining. Zero gain limits mean "this channel does not
// drift" and are replaced by 1.
func (f *FaultInjector) AddPlantFault(pf PlantFault) *FaultInjector {
	if pf.GainLimitIPS == 0 {
		pf.GainLimitIPS = 1
	}
	if pf.GainLimitPower == 0 {
		pf.GainLimitPower = 1
	}
	f.plant = append(f.plant, pf)
	f.plantSt = append(f.plantSt, plantState{gain: [2]float64{1, 1}})
	return f
}

// active reports whether a fault window fires on epoch k, consuming a
// random draw when the fault is probabilistic.
func (f *FaultInjector) active(from, until, every int, prob float64, k int) bool {
	if k < from || (until > 0 && k >= until) {
		return false
	}
	if every > 1 && (k-from)%every != 0 {
		return false
	}
	if prob > 0 && prob < 1 && f.rng.Float64() >= prob {
		return false
	}
	return true
}

// Apply forwards the configuration to the plant through the actuator
// fault model: stuck knobs keep their current plant setting, ActError
// faults fail the call, and ActDelay faults defer the landing.
func (f *FaultInjector) Apply(cfg Config) error {
	for i := range f.act {
		af := &f.act[i]
		if !f.active(af.From, af.Until, af.Every, af.Prob, f.epoch) {
			continue
		}
		switch af.Kind {
		case ActError:
			f.counts.ApplyErrors++
			return &ActuatorError{Epoch: f.epoch}
		case ActStuck:
			cur := f.proc.Config()
			stuck := false
			if af.Knob == KnobAll || af.Knob == KnobFreq {
				stuck = stuck || cfg.FreqIdx != cur.FreqIdx
				cfg.FreqIdx = cur.FreqIdx
			}
			if af.Knob == KnobAll || af.Knob == KnobCache {
				stuck = stuck || cfg.CacheIdx != cur.CacheIdx
				cfg.CacheIdx = cur.CacheIdx
			}
			if af.Knob == KnobAll || af.Knob == KnobROB {
				stuck = stuck || cfg.ROBIdx != cur.ROBIdx
				cfg.ROBIdx = cur.ROBIdx
			}
			if stuck {
				f.counts.StuckWrites++
			}
		case ActDelay:
			f.counts.DelayedApplies++
			f.pending = append(f.pending, delayedApply{due: f.epoch + af.DelayEpochs, cfg: cfg})
			return nil
		}
	}
	return f.proc.Apply(cfg)
}

// Step lands any due delayed actuations, steps the plant one epoch,
// applies any armed plant degradation, and corrupts the measured
// outputs per the armed sensor faults. Sensor faults never touch the
// true (noiseless) outputs — evaluation stays honest — but plant
// faults legitimately change them: a drifted plant really does perform
// differently, and scoring must see that.
func (f *FaultInjector) Step() (t Telemetry) {
	// Land delayed configurations whose latency has elapsed.
	kept := f.pending[:0]
	for _, d := range f.pending {
		if d.due <= f.epoch {
			_ = f.proc.Apply(d.cfg) // queued configs were validated upstream
		} else {
			kept = append(kept, d)
		}
	}
	f.pending = kept

	f.proc.step(&t)
	for i := range f.plant {
		f.applyPlantFault(i, &t)
	}
	for i := range f.sensor {
		sf := &f.sensor[i]
		if !f.active(sf.From, sf.Until, sf.Every, sf.Prob, f.epoch) {
			continue
		}
		f.corrupt(i, sf, &t)
	}
	f.epoch++
	return t
}

// applyPlantFault advances (inside the window) and applies (from From
// onward, forever) plant degradation i. The measured channels move with
// the true ones: the sensors honestly report the drifted plant.
func (f *FaultInjector) applyPlantFault(i int, t *Telemetry) {
	pf := &f.plant[i]
	st := &f.plantSt[i]
	if f.epoch < pf.From {
		return
	}
	if pf.Until <= 0 || f.epoch < pf.Until {
		// Advance the degradation.
		st.gain[0] = approach(st.gain[0], pf.GainLimitIPS, pf.GainRateIPS)
		st.gain[1] = approach(st.gain[1], pf.GainLimitPower, pf.GainRatePower)
		st.pole = approach(st.pole, pf.PoleLimit, pf.PoleRate)
		f.counts.PlantDriftEpochs++
	}
	switch pf.Kind {
	case PlantGainDrift:
		// The processor's sensor noise is multiplicative, so scaling the
		// measured channels by the same gains preserves the noise model.
		t.TrueIPS *= st.gain[0]
		t.IPS *= st.gain[0]
		t.TruePowerW *= st.gain[1]
		t.PowerW *= st.gain[1]
	case PlantLagDrift:
		if !st.lagInit {
			st.lag = [2]float64{t.TrueIPS, t.TruePowerW}
			st.lagInit = true
		}
		a := st.pole
		noiseIPS := t.IPS - t.TrueIPS
		noisePow := t.PowerW - t.TruePowerW
		t.TrueIPS = (1-a)*t.TrueIPS + a*st.lag[0]
		t.TruePowerW = (1-a)*t.TruePowerW + a*st.lag[1]
		st.lag = [2]float64{t.TrueIPS, t.TruePowerW}
		t.IPS = t.TrueIPS + noiseIPS
		t.PowerW = t.TruePowerW + noisePow
	}
}

// approach moves cur toward limit by at most rate (rate's sign is
// ignored; the direction comes from where the limit lies).
func approach(cur, limit, rate float64) float64 {
	if rate < 0 {
		rate = -rate
	}
	if cur < limit {
		cur += rate
		if cur > limit {
			cur = limit
		}
	} else if cur > limit {
		cur -= rate
		if cur < limit {
			cur = limit
		}
	}
	return cur
}

// corrupt applies one firing of sensor fault i to the telemetry.
func (f *FaultInjector) corrupt(i int, sf *SensorFault, t *Telemetry) {
	hitIPS := sf.Channel == ChAll || sf.Channel == ChIPS
	hitPower := sf.Channel == ChAll || sf.Channel == ChPower
	switch sf.Kind {
	case FaultDropout:
		if hitIPS {
			t.IPS = 0
		}
		if hitPower {
			t.PowerW = 0
		}
	case FaultFreeze:
		if !f.hasFrozen[i] {
			f.frozen[i] = [2]float64{t.IPS, t.PowerW}
			f.hasFrozen[i] = true
		}
		if hitIPS {
			t.IPS = f.frozen[i][0]
		}
		if hitPower {
			t.PowerW = f.frozen[i][1]
		}
	case FaultSpike:
		if hitIPS {
			t.IPS *= sf.Magnitude
		}
		if hitPower {
			t.PowerW *= sf.Magnitude
		}
	case FaultDrift:
		if hitIPS {
			f.drift[i][0] += sf.Magnitude
			t.IPS += f.drift[i][0]
		}
		if hitPower {
			f.drift[i][1] += sf.Magnitude
			t.PowerW += f.drift[i][1]
		}
	case FaultNaN:
		if hitIPS {
			t.IPS = math.NaN()
		}
		if hitPower {
			t.PowerW = math.NaN()
		}
	case FaultInf:
		if hitIPS {
			t.IPS = math.Inf(1)
		}
		if hitPower {
			t.PowerW = math.Inf(1)
		}
	}
	if hitIPS {
		f.counts.SensorHits++
	}
	if hitPower {
		f.counts.SensorHits++
	}
}
