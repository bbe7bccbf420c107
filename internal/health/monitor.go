// Package health implements online model-health monitoring for the
// deployed MIMO controller and offline root-cause diagnosis of flight
// recordings.
//
// The paper's design flow validates the model, pads it with an
// uncertainty guardband, and proves small-gain robust stability before
// deployment (§IV-B, Fig. 3). Those certificates are conditional: they
// hold while the real plant stays inside the guardband. This package
// watches the conditions at runtime:
//
//   - guardband consumption: the running innovation magnitude relative
//     to each output's design guardband — how much of the certified
//     uncertainty budget the live mismatch is already spending;
//   - robust-stability margin: the small-gain margin 1/‖W·M‖∞
//     periodically recomputed with the guardband inflated to the
//     observed mismatch, so the certificate is re-checked against
//     reality instead of the design assumption.
//
// Monitor streams these from the control loop. Innovation whiteness
// (Ljung–Box) is not among them: a quantized-actuation loop's
// innovation is never white even when healthy (the quantizer injects
// correlated disturbance), so online it cannot separate drift from
// nominal. Diagnose (diagnose.go) applies it, with the other
// statistics, to a flight-recorder dump after the fact, where it only
// corroborates growth.
package health

import (
	"fmt"
	"math"
	"sync"

	"mimoctl/internal/core"
	"mimoctl/internal/lti"
	"mimoctl/internal/robust"
)

// Level is the monitor's verdict ladder.
type Level int32

const (
	LevelOK Level = iota
	LevelWarn
	LevelFail
)

// String returns "ok", "warn", or "fail".
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelFail:
		return "fail"
	default:
		return "ok"
	}
}

// The monitor's tuning. Innovations are normalized by the paper's
// targets (core.DefaultIPSTarget, core.DefaultPowerTarget) and their
// consumption is measured against its design guardbands
// (core.DefaultIPSGuardband, core.DefaultPowerGuardband, §VI-A2).
//
// The consumption thresholds are calibrated against the namd fault
// sweep: the nominal engaged loop idles near an EMA consumption of
// ~0.22-0.25, while the plant-drift class pushes it well past the fail
// line (internal/experiments TestFaultSweep). A fail verdict is a
// supervisor alarm and arms the adaptation trigger, so it must mean
// the observed mismatch is drift, not the loop's quantization floor.
const (
	// evalEvery re-evaluates the verdict every this many observations.
	evalEvery = 16
	// consumptionAlpha is the EMA coefficient of the running innovation
	// magnitude (≈20-epoch memory).
	consumptionAlpha = 0.05
	// consumptionWarn / consumptionFail are the guardband-consumption
	// thresholds (compared with >=).
	consumptionWarn = 0.30
	consumptionFail = 0.40
	// marginWarn / marginFail are the stability-margin thresholds
	// (compared with <): below 1 the recomputed small-gain certificate
	// no longer holds.
	marginWarn = 1.2
	marginFail = 1.0
	// recomputeEvery is the margin recompute period in observations (the
	// analysis walks a 512-point frequency grid).
	recomputeEvery = 2048
)

// Snapshot is one evaluation of the monitor.
type Snapshot struct {
	// GuardbandConsumption is the worst channel's EMA |innovation| /
	// (scale × guardband): 1.0 means the live mismatch equals the
	// certified uncertainty budget.
	GuardbandConsumption float64
	// StabilityMargin is 1/‖W·M‖∞ from the most recent recompute with
	// the observed guardband (NaN before the first recompute or when no
	// plant/controller model was provided).
	StabilityMargin float64
	// Level is the combined verdict; Detail names the worst offender.
	Level  Level
	Detail string
	// Observations counts innovations consumed.
	Observations uint64
}

// Monitor streams innovation samples from the control loop and
// maintains the health figures. Observe is cheap (two EMA updates); the
// verdict is re-evaluated every evalEvery observations and the margin
// recomputed every recomputeEvery. A nil *Monitor is valid and ignores
// all calls, so callers can wire it unconditionally.
type Monitor struct {
	mu sync.Mutex

	// plant and ctrl, when both set (by Rebase), enable the periodic
	// margin recompute via robust.Analyze with the guardband inflated to
	// the observed consumption.
	plant, ctrl *lti.StateSpace

	n   uint64
	ema [2]float64 // EMA of |normalized innovation| per channel

	margin float64
	level  Level
	detail string

	tel *healthMetrics // gauges (nil: unbound)
}

// NewMonitor builds a monitor with no plant/controller pair: the margin
// recompute starts when Rebase supplies one.
func NewMonitor() *Monitor {
	return &Monitor{margin: math.NaN(), detail: "model health ok"}
}

// Observe consumes one epoch's Kalman innovation in absolute output
// units (BIPS, watts). Non-finite samples are skipped: faulted sensor
// epochs are sanitized upstream, and a NaN would poison every running
// statistic.
func (m *Monitor) Observe(innovIPS, innovPowerW float64) {
	if m == nil {
		return
	}
	ni := innovIPS / core.DefaultIPSTarget
	np := innovPowerW / core.DefaultPowerTarget
	if math.IsNaN(ni) || math.IsInf(ni, 0) || math.IsNaN(np) || math.IsInf(np, 0) {
		return
	}
	m.mu.Lock()
	m.ema[0] += consumptionAlpha * (math.Abs(ni) - m.ema[0])
	m.ema[1] += consumptionAlpha * (math.Abs(np) - m.ema[1])
	m.n++
	evalDue := m.n%evalEvery == 0
	marginDue := m.plant != nil && m.ctrl != nil && m.n%recomputeEvery == 0
	if marginDue {
		m.recomputeMarginLocked()
	}
	if evalDue || marginDue {
		m.evaluateLocked()
	}
	m.mu.Unlock()
}

// recomputeMarginLocked re-runs the small-gain analysis with each
// guardband inflated to the observed consumption: the certificate is
// only as good as the uncertainty bound, so once the live mismatch
// exceeds the design guardband the margin must be re-derived against
// what the plant is actually doing.
func (m *Monitor) recomputeMarginLocked() {
	gb := [2]float64{
		math.Max(core.DefaultIPSGuardband, m.ema[0]),
		math.Max(core.DefaultPowerGuardband, m.ema[1]),
	}
	rep, err := robust.Analyze(m.plant, m.ctrl, gb[:])
	if err != nil {
		return // keep the previous margin; the models did not change
	}
	if !rep.NominallyStable {
		m.margin = 0
		return
	}
	m.margin = rep.Margin
}

// evaluateLocked folds consumption and margin into a Level and
// publishes.
func (m *Monitor) evaluateLocked() {
	cons := m.consumptionLocked()
	level, detail := LevelOK, "model health ok"
	check := func(l Level, d string) {
		if l > level {
			level, detail = l, d
		}
	}
	if cons >= consumptionFail {
		check(LevelFail, fmt.Sprintf("guardband exhausted (consumption %.0f%%)", cons*100))
	} else if cons >= consumptionWarn {
		check(LevelWarn, fmt.Sprintf("guardband consumption %.0f%%", cons*100))
	}
	if !math.IsNaN(m.margin) {
		if m.margin < marginFail {
			check(LevelFail, fmt.Sprintf("small-gain certificate lost (margin %.2f)", m.margin))
		} else if m.margin < marginWarn {
			check(LevelWarn, fmt.Sprintf("stability margin thin (%.2f)", m.margin))
		}
	}
	m.level, m.detail = level, detail
	if m.tel != nil {
		m.tel.publish(m.snapshotLocked(), [2]float64{m.ema[0] / core.DefaultIPSGuardband, m.ema[1] / core.DefaultPowerGuardband})
	}
}

// consumptionLocked returns the worst channel's budget consumption.
func (m *Monitor) consumptionLocked() float64 {
	c0 := m.ema[0] / core.DefaultIPSGuardband
	c1 := m.ema[1] / core.DefaultPowerGuardband
	return math.Max(c0, c1)
}

func (m *Monitor) snapshotLocked() Snapshot {
	return Snapshot{
		GuardbandConsumption: m.consumptionLocked(),
		StabilityMargin:      m.margin,
		Level:                m.level,
		Detail:               m.detail,
		Observations:         m.n,
	}
}

// ObservedMismatch returns the per-channel EMA of the normalized
// innovation magnitude — the live model/plant mismatch in the same
// units as the design guardbands. The adaptation loop verifies a
// re-identified candidate against guardbands inflated to these values:
// a swap is only trusted when the new design would survive the mismatch
// actually observed, not just the one assumed at design time. A nil
// monitor reports zero mismatch.
func (m *Monitor) ObservedMismatch() (ips, power float64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ema[0], m.ema[1]
}

// Rebase re-points the margin recompute at a new plant/controller pair
// and clears every running statistic. The adaptation loop calls it
// after a hot swap: the EMAs describe the old model's innovations, and
// left in place they would immediately re-trigger the very drift alarm
// the swap just resolved. Passing nil models disables the margin
// recompute.
func (m *Monitor) Rebase(plant, ctrl *lti.StateSpace) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.plant, m.ctrl = plant, ctrl
	m.ema = [2]float64{}
	m.margin = math.NaN()
	m.level, m.detail = LevelOK, "model health ok (rebased)"
}

// Level returns the current combined verdict without copying the full
// snapshot — cheap enough for a per-epoch supervisor check.
func (m *Monitor) Level() Level {
	if m == nil {
		return LevelOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.level
}

// Snapshot returns the most recent evaluation.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{StabilityMargin: math.NaN(), Detail: "no monitor"}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}
