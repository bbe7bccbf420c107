// Package core implements the paper's primary contribution: MIMO
// control-theoretic controllers for processor architecture knobs, the
// design flow that produces them (Fig. 3), and the three uses of §V —
// tracking multiple references, time-varying tracking, and fast
// optimization of E·D^k leveraging tracking.
package core

import (
	"math"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
)

// ArchController is a hardware controller invoked once per 50 µs control
// epoch: it reads the sensors from the completed epoch and chooses the
// knob settings for the next one. Implementations: the MIMO LQG
// controller (this package), decoupled SISO controllers
// (internal/decoupled), and the heuristic controller
// (internal/heuristic).
type ArchController interface {
	// Name identifies the architecture for reports (Table IV).
	Name() string
	// SetTargets updates the output references: performance in BIPS and
	// power in watts.
	SetTargets(ips, power float64)
	// Targets returns the current references.
	Targets() (ips, power float64)
	// Step consumes the telemetry of the finished epoch and returns the
	// configuration to apply for the next epoch.
	Step(t sim.Telemetry) sim.Config
	// Reset clears controller state (estimates, integrators, search
	// positions) without changing targets.
	Reset()
}

// FillEvent writes the record of one epoch of a loop without a
// supervisor, the one writer of those records (a supervised loop's are
// its supervisor's): tel is the telemetry ctrl stepped on (its
// measurement, and the configuration in effect during that epoch) and
// cfg the configuration it returned; the recorder stamps the epoch.
// What the loop cannot see is NaN. A *MIMOController adds its
// FillInternals and, when the step succeeded, its Kalman innovation;
// the innovation norm and guardband are a supervisor's and stay NaN.
func FillEvent(ev *obs.Event, ctrl ArchController, cfg sim.Config, tel *sim.Telemetry) {
	ti, tp := ctrl.Targets()
	nan := math.NaN()
	*ev = obs.Event{
		IPSTarget:   ti,
		PowerTarget: tp,
		IPS:         tel.IPS,
		PowerW:      tel.PowerW,
		TrueIPS:     tel.TrueIPS,
		TruePowerW:  tel.TruePowerW,
		InnovIPS:    nan,
		InnovPowerW: nan,
		InnovNorm:   nan,
		ExcessNorm:  nan,
		Guardband:   nan,
		UFreqGHz:    nan,
		UL2Ways:     nan,
		UROBEntries: nan,
		ReqFreq:     int16(cfg.FreqIdx),
		ReqCache:    int16(cfg.CacheIdx),
		ReqROB:      int16(cfg.ROBIdx),
		CfgFreq:     int16(tel.Config.FreqIdx),
		CfgCache:    int16(tel.Config.CacheIdx),
		CfgROB:      int16(tel.Config.ROBIdx),
	}
	if c, ok := ctrl.(*MIMOController); ok {
		if !c.stepErr {
			innov := c.lq.LastInnovationInto(c.scr.innov[:0])
			ev.InnovIPS, ev.InnovPowerW = innov[0], innov[1]
		}
		c.FillInternals(ev)
	}
}

// Defaults from the paper's Table III.
const (
	// Output weights (Tracking Error Cost Q): power is √1000 ≈ 30×
	// more important than IPS.
	DefaultPowerWeight = 10000.0
	DefaultIPSWeight   = 10.0
	// Input weights (Control Effort Cost R) in the controller's
	// normalized input units: frequency in GHz, cache size in L2 ways,
	// ROB size in 16-entry units. The paper's Table III ratios are
	// preserved (freq:cache = 20:1, ROB:cache = 2:1); the absolute scale
	// is calibrated to this plant's units so the closed loop is neither
	// ripply nor sluggish (§IV-B2, Fig. 4).
	DefaultFreqWeight  = 40.0
	DefaultCacheWeight = 2.0
	DefaultROBWeight   = 4.0
	// Uncertainty guardbands (§VI-A2): 50% for IPS, 30% for power.
	DefaultIPSGuardband   = 0.50
	DefaultPowerGuardband = 0.30
	// Model dimension chosen in the paper (§VI-A2, Fig. 7).
	DefaultModelDimension = 4
	// Optimizer parameters (Table III): trials per search episode, the
	// epochs to wait after each retarget before measuring, and the
	// epochs the metric is averaged over — long enough that the sensor
	// and phase noise (a few percent per epoch) averages below the
	// metric differences being compared.
	DefaultOptimizerMaxTries      = 10
	DefaultOptimizerSettleEpochs  = 8
	DefaultOptimizerMeasureEpochs = 20
	// OptimizerPeriodEpochs is 10 ms at 50 µs per epoch.
	DefaultOptimizerPeriodEpochs = 200
	// Default tracking targets (§VII-B1).
	DefaultIPSTarget   = 2.5
	DefaultPowerTarget = 2.0
)

// ROBUnit is the granularity of the normalized ROB input channel: the
// controller reasons in 16-entry units (1..8) so the three knobs share
// comparable numeric ranges and the Table III weights apply.
const ROBUnit = 16.0

// knobsFromConfigInto converts a configuration to the controller's
// normalized continuous input vector, appending into dst's backing
// array (dst[:0] is reused). The 2-input variant is [freq GHz, L2
// ways]; the 3-input variant appends ROB/16. The per-step hot path and
// the identification runs pass a scratch slice with capacity 3, so no
// allocation occurs.
func knobsFromConfigInto(dst []float64, cfg sim.Config, threeInput bool) []float64 {
	dst = append(dst[:0], cfg.FreqGHz(), float64(cfg.L2Ways()))
	if threeInput {
		dst = append(dst, float64(cfg.ROBEntries())/ROBUnit)
	}
	return dst
}

// ActuatorHysteresis is the fraction of a knob step the continuous
// request must cross beyond the midpoint before the discrete setting
// changes, suppressing quantization limit cycles (each spurious DVFS
// move costs a 5 µs stall).
const ActuatorHysteresis = 0.25

// configFromKnobs quantizes a normalized continuous input vector to a
// legal configuration with hysteresis around the current settings. Only
// the knobs the controller drives are quantized: with two inputs the
// ROB stays at its current setting.
func configFromKnobs(u []float64, threeInput bool, current sim.Config) sim.Config {
	cfg := sim.Config{
		FreqIdx:  sim.FreqIndexHysteresis(u[0], current.FreqIdx, ActuatorHysteresis),
		CacheIdx: sim.CacheIndexHysteresis(u[1], current.CacheIdx, ActuatorHysteresis),
		ROBIdx:   current.ROBIdx,
	}
	if threeInput {
		cfg.ROBIdx = sim.ROBIndexHysteresis(u[2]*ROBUnit, current.ROBIdx, ActuatorHysteresis)
	}
	return cfg
}
