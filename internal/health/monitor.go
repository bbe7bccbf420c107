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
//   - innovation whiteness (Ljung–Box): a correct Kalman model leaves a
//     white innovation sequence; autocorrelation means model drift;
//   - guardband consumption: the running innovation magnitude relative
//     to each output's design guardband — how much of the certified
//     uncertainty budget the live mismatch is already spending;
//   - robust-stability margin: the small-gain margin 1/‖W·M‖∞
//     periodically recomputed with the guardband inflated to the
//     observed mismatch, so the certificate is re-checked against
//     reality instead of the design assumption.
//
// Monitor streams these from the control loop; Diagnose (diagnose.go)
// applies the same statistics to a flight-recorder dump after the fact.
package health

import (
	"fmt"
	"math"
	"sync"

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

// Options tunes the monitor. Zero values select the defaults, which
// mirror the paper's operating point (targets 2.5 BIPS / 2.0 W as the
// normalization scales, guardbands 50% IPS / 30% power from §VI-A2).
type Options struct {
	// Window is the sliding-window length for the whiteness test
	// (default 256 observations).
	Window int
	// Lags is the number of Ljung–Box autocorrelation lags (default 8).
	Lags int
	// EvalEvery re-runs the whiteness test every this many observations
	// (default 64): the test is O(Window·Lags), too heavy per epoch.
	EvalEvery int
	// IPSScale / PowerScale normalize the innovation channels (defaults
	// 2.5 BIPS, 2.0 W — the paper's targets).
	IPSScale, PowerScale float64
	// IPSGuardband / PowerGuardband are the design guardbands the
	// consumption gauge is measured against (defaults 0.50, 0.30).
	IPSGuardband, PowerGuardband float64
	// ConsumptionAlpha is the EMA coefficient of the running innovation
	// magnitude (default 0.02 ≈ 50-epoch memory).
	ConsumptionAlpha float64
	// Whiteness p-value thresholds (defaults: warn below 1e-2, fail
	// below 1e-4). A negative threshold disables that check: a
	// quantized-actuation loop's innovation is never white even when
	// healthy (the quantizer injects correlated disturbance), so
	// deployments on coarse knob grids gate on consumption alone.
	WhitenessWarn, WhitenessFail float64
	// Guardband-consumption thresholds (defaults: warn at 0.8, fail at
	// 1.0 — the observed mismatch has eaten the certified budget).
	ConsumptionWarn, ConsumptionFail float64
	// Stability-margin thresholds (defaults: warn below 1.2, fail below
	// 1.0 — the recomputed small-gain certificate no longer holds).
	MarginWarn, MarginFail float64
	// Plant and Ctrl, when both set, enable the periodic margin
	// recompute via robust.Analyze with the guardband inflated to the
	// observed consumption.
	Plant, Ctrl *lti.StateSpace
	// RecomputeEvery is the margin recompute period in observations
	// (default 2048; the analysis walks a 512-point frequency grid).
	RecomputeEvery int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.Lags <= 0 {
		o.Lags = 8
	}
	if o.EvalEvery <= 0 {
		o.EvalEvery = 64
	}
	if o.IPSScale <= 0 {
		o.IPSScale = 2.5
	}
	if o.PowerScale <= 0 {
		o.PowerScale = 2.0
	}
	if o.IPSGuardband <= 0 {
		o.IPSGuardband = 0.50
	}
	if o.PowerGuardband <= 0 {
		o.PowerGuardband = 0.30
	}
	if o.ConsumptionAlpha <= 0 || o.ConsumptionAlpha > 1 {
		o.ConsumptionAlpha = 0.02
	}
	if o.WhitenessWarn == 0 {
		o.WhitenessWarn = 1e-2
	}
	if o.WhitenessFail == 0 {
		o.WhitenessFail = 1e-4
	}
	if o.ConsumptionWarn <= 0 {
		o.ConsumptionWarn = 0.8
	}
	if o.ConsumptionFail <= 0 {
		o.ConsumptionFail = 1.0
	}
	if o.MarginWarn <= 0 {
		o.MarginWarn = 1.2
	}
	if o.MarginFail <= 0 {
		o.MarginFail = 1.0
	}
	if o.RecomputeEvery <= 0 {
		o.RecomputeEvery = 2048
	}
	return o
}

// Snapshot is one evaluation of the three monitors.
type Snapshot struct {
	// WhitenessP is the worst (minimum) Ljung–Box p-value across the
	// innovation channels; 1 until the window has enough samples.
	WhitenessP float64
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
// maintains the three health figures. Observe is cheap (two ring writes
// and two EMA updates); the whiteness test and margin recompute run on
// the configured periods. A nil *Monitor is valid and ignores all
// calls, so callers can wire it unconditionally.
type Monitor struct {
	mu   sync.Mutex
	opts Options

	ring  [2][]float64 // normalized innovations, ring order
	next  int
	count int
	n     uint64
	ema   [2]float64 // EMA of |normalized innovation| per channel

	whiteP float64
	margin float64
	level  Level
	detail string

	ordered []float64 // scratch: window in chronological order

	tel *healthMetrics // gauges (nil: unbound)
}

// NewMonitor builds a monitor with the given options.
func NewMonitor(opts Options) *Monitor {
	o := opts.withDefaults()
	m := &Monitor{opts: o, whiteP: 1, margin: math.NaN()}
	m.ring[0] = make([]float64, o.Window)
	m.ring[1] = make([]float64, o.Window)
	m.ordered = make([]float64, o.Window)
	m.detail = "model health ok"
	return m
}

// Observe consumes one epoch's Kalman innovation in absolute output
// units (BIPS, watts). Non-finite samples are skipped: faulted sensor
// epochs are sanitized upstream, and a NaN would poison every running
// statistic.
func (m *Monitor) Observe(innovIPS, innovPowerW float64) {
	if m == nil {
		return
	}
	ni := innovIPS / m.opts.IPSScale
	np := innovPowerW / m.opts.PowerScale
	if math.IsNaN(ni) || math.IsInf(ni, 0) || math.IsNaN(np) || math.IsInf(np, 0) {
		return
	}
	m.mu.Lock()
	m.ring[0][m.next] = ni
	m.ring[1][m.next] = np
	m.next++
	if m.next == len(m.ring[0]) {
		m.next = 0
	}
	if m.count < len(m.ring[0]) {
		m.count++
	}
	a := m.opts.ConsumptionAlpha
	m.ema[0] += a * (math.Abs(ni) - m.ema[0])
	m.ema[1] += a * (math.Abs(np) - m.ema[1])
	m.n++
	evalDue := m.n%uint64(m.opts.EvalEvery) == 0
	marginDue := m.opts.Plant != nil && m.opts.Ctrl != nil && m.n%uint64(m.opts.RecomputeEvery) == 0
	if marginDue {
		m.recomputeMarginLocked()
	}
	if evalDue || marginDue {
		m.evaluateLocked()
	}
	m.mu.Unlock()
}

// window copies channel ch of the ring into m.ordered chronologically.
func (m *Monitor) window(ch int) []float64 {
	out := m.ordered[:m.count]
	start := m.next - m.count
	if start < 0 {
		start += len(m.ring[ch])
	}
	n := copy(out, m.ring[ch][start:])
	copy(out[n:], m.ring[ch][:m.count-n])
	return out
}

// recomputeMarginLocked re-runs the small-gain analysis with each
// guardband inflated to the observed consumption: the certificate is
// only as good as the uncertainty bound, so once the live mismatch
// exceeds the design guardband the margin must be re-derived against
// what the plant is actually doing.
func (m *Monitor) recomputeMarginLocked() {
	gb := [2]float64{
		math.Max(m.opts.IPSGuardband, m.ema[0]),
		math.Max(m.opts.PowerGuardband, m.ema[1]),
	}
	rep, err := robust.Analyze(m.opts.Plant, m.opts.Ctrl, gb[:])
	if err != nil {
		return // keep the previous margin; the models did not change
	}
	if !rep.NominallyStable {
		m.margin = 0
		return
	}
	m.margin = rep.Margin
}

// evaluateLocked refreshes the whiteness p-value, folds the three
// figures into a Level, and publishes.
func (m *Monitor) evaluateLocked() {
	o := m.opts
	p := 1.0
	if m.count >= o.Lags+2 {
		for ch := 0; ch < 2; ch++ {
			if v := ljungBoxP(m.window(ch), o.Lags); v < p {
				p = v
			}
		}
	}
	m.whiteP = p
	cons := m.consumptionLocked()
	level, detail := LevelOK, "model health ok"
	check := func(l Level, d string) {
		if l > level {
			level, detail = l, d
		}
	}
	if o.WhitenessFail > 0 && p < o.WhitenessFail {
		check(LevelFail, fmt.Sprintf("innovation not white (Ljung-Box p=%.2g)", p))
	} else if o.WhitenessWarn > 0 && p < o.WhitenessWarn {
		check(LevelWarn, fmt.Sprintf("innovation whiteness degraded (Ljung-Box p=%.2g)", p))
	}
	if cons >= o.ConsumptionFail {
		check(LevelFail, fmt.Sprintf("guardband exhausted (consumption %.0f%%)", cons*100))
	} else if cons >= o.ConsumptionWarn {
		check(LevelWarn, fmt.Sprintf("guardband consumption %.0f%%", cons*100))
	}
	if !math.IsNaN(m.margin) {
		if m.margin < o.MarginFail {
			check(LevelFail, fmt.Sprintf("small-gain certificate lost (margin %.2f)", m.margin))
		} else if m.margin < o.MarginWarn {
			check(LevelWarn, fmt.Sprintf("stability margin thin (%.2f)", m.margin))
		}
	}
	m.level, m.detail = level, detail
	if m.tel != nil {
		m.tel.publish(m.snapshotLocked(), [2]float64{m.ema[0] / o.IPSGuardband, m.ema[1] / o.PowerGuardband})
	}
}

// consumptionLocked returns the worst channel's budget consumption.
func (m *Monitor) consumptionLocked() float64 {
	c0 := m.ema[0] / m.opts.IPSGuardband
	c1 := m.ema[1] / m.opts.PowerGuardband
	return math.Max(c0, c1)
}

func (m *Monitor) snapshotLocked() Snapshot {
	return Snapshot{
		WhitenessP:           m.whiteP,
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
// after a hot swap: the ring and EMAs describe the old model's
// innovations, and left in place they would immediately re-trigger the
// very drift alarm the swap just resolved. Passing nil models disables
// the margin recompute.
func (m *Monitor) Rebase(plant, ctrl *lti.StateSpace) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opts.Plant, m.opts.Ctrl = plant, ctrl
	for i := range m.ring[0] {
		m.ring[0][i] = 0
		m.ring[1][i] = 0
	}
	m.next, m.count = 0, 0
	m.ema = [2]float64{}
	m.whiteP = 1
	m.margin = math.NaN()
	m.level, m.detail = LevelOK, "model health ok (rebased)"
}

// Snapshot returns the most recent evaluation.
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

func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{WhitenessP: 1, StabilityMargin: math.NaN(), Detail: "no monitor"}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}
