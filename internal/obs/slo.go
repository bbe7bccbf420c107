package obs

import (
	"fmt"
	"math"
)

// The control-SLO engine scores each loop's formal contract online. An
// SLO declares which epochs are "bad" in terms of a control-theoretic
// signal, what fraction of good epochs the contract promises
// (Objective), and the burn-rate windows that turn bad-epoch density
// into an alert. Burn rate is the SRE definition transplanted to epoch
// time: (observed bad fraction over the window) / (allowed bad
// fraction), so burn 1.0 spends the error budget exactly at the rate
// the objective tolerates and burn 14 exhausts a day's budget in 100
// minutes. An SLO alerts only when EVERY window burns past its
// threshold — the short window proves the problem is happening now, the
// long one proves it is not a blip (multi-window, multi-burn-rate
// alerting).

// Signal selects which per-epoch condition an SLO scores.
type Signal int

const (
	// SignalTrackingError marks an epoch bad when the worst-channel
	// relative tracking error |y-r|/r exceeds Threshold.
	SignalTrackingError Signal = iota
	// SignalOvershoot marks an epoch bad when either output exceeds its
	// target from above by more than Threshold (relative): bounded
	// overshoot is a promise of the servo design.
	SignalOvershoot
	// SignalSettling marks an epoch bad when the loop is still outside
	// the Threshold band more than Grace epochs after a target change —
	// the paper's settling-time guarantee as a contract.
	SignalSettling
	// SignalPowerBudget marks an epoch bad when measured power exceeds
	// the power target by more than Threshold (relative): the capping
	// contract. Violation epochs also accumulate into the
	// power-budget-violation gauge surfaced per loop.
	SignalPowerBudget
	// SignalFallback marks an epoch bad when the loop is pinned at the
	// safe configuration: time spent in fallback is time the formal
	// controller delivered nothing.
	SignalFallback
)

// String names the signal for reports.
func (s Signal) String() string {
	switch s {
	case SignalTrackingError:
		return "tracking-error"
	case SignalOvershoot:
		return "overshoot"
	case SignalSettling:
		return "settling"
	case SignalPowerBudget:
		return "power-budget"
	case SignalFallback:
		return "fallback"
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Window is one burn-rate evaluation window.
type Window struct {
	// Epochs is the window length.
	Epochs int
	// MaxBurn is the alerting threshold on the burn rate over this
	// window.
	MaxBurn float64
}

// Spec is one declarative control SLO.
type Spec struct {
	// Name identifies the SLO in reports and metric labels.
	Name string
	// Signal selects the per-epoch badness condition.
	Signal Signal
	// Threshold parameterizes the condition (relative error band,
	// overshoot fraction, budget headroom) — unused by SignalFallback.
	Threshold float64
	// Objective is the promised good-epoch fraction (e.g. 0.95: at most
	// 5% of epochs bad).
	Objective float64
	// Grace, for SignalSettling, is the settling allowance in epochs
	// after a target change.
	Grace int
	// Windows are the burn-rate windows; an alert requires every window
	// to burn past its threshold. Empty specs never alert.
	Windows []Window
}

// errBudget returns the allowed bad fraction.
func (s Spec) errBudget() float64 {
	b := 1 - s.Objective
	if b <= 0 {
		b = 1e-9 // a 100% objective still yields finite burn rates
	}
	return b
}

// DefaultSpecs returns the standard control-SLO set, sized for the
// 50 µs epoch and the default targets. The window pairs follow the
// multi-window pattern: a short window (fast detection) and a long
// window (sustained evidence), both of which must burn.
func DefaultSpecs() []Spec {
	return []Spec{
		{
			Name:      "tracking",
			Signal:    SignalTrackingError,
			Threshold: 0.25, // worst channel within 25% of target
			Objective: 0.90,
			Windows:   []Window{{Epochs: 256, MaxBurn: 3}, {Epochs: 2048, MaxBurn: 1.5}},
		},
		{
			Name:      "power-budget",
			Signal:    SignalPowerBudget,
			Threshold: 0.15, // the paper's recovery band: power within 15% above target
			Objective: 0.95,
			Windows:   []Window{{Epochs: 256, MaxBurn: 4}, {Epochs: 2048, MaxBurn: 2}},
		},
		{
			Name:      "availability",
			Signal:    SignalFallback,
			Threshold: 0,
			Objective: 0.99,
			Windows:   []Window{{Epochs: 256, MaxBurn: 10}, {Epochs: 2048, MaxBurn: 5}},
		},
	}
}

// sloEval is the online evaluator of one Spec for one loop: a ring of
// bad-epoch bits as long as the longest window, with each window's bad
// count and burn rate maintained incrementally. Each window keeps the
// ring index of the epoch that leaves it next, advanced by
// compare-and-wrap, and recomputes its burn rate only when its bad
// count changes or while its span is still filling. Updates are
// O(windows) with no allocation, and a loop's rings stay a few hundred
// bytes, so a fleet's fit in cache.
type sloEval struct {
	spec   Spec
	budget float64

	ring []uint64 // bad flags, one bit per epoch
	n    int      // ring length in epochs: the longest window
	pos  int      // next write index
	seen int      // epochs observed, capped at n

	win []winState // per spec window

	totalBad    uint64
	totalEpochs uint64

	alerting bool
	burning  bool
	// worstBurn is the maximum burn rate across windows after the
	// last observe (the per-loop burn gauge).
	worstBurn float64
}

// winState is one window's spec and running state.
type winState struct {
	Window
	leave int     // ring index of the epoch that leaves the window next
	bad   int     // bad epochs within the window
	burn  float64 // burn rate over the window
}

func newSLOEval(spec Spec) *sloEval {
	n := 1
	for _, w := range spec.Windows {
		if w.Epochs > n {
			n = w.Epochs
		}
	}
	e := &sloEval{
		spec:   spec,
		budget: spec.errBudget(),
		ring:   make([]uint64, (n+63)/64),
		n:      n,
		win:    make([]winState, len(spec.Windows)),
	}
	for i, w := range spec.Windows {
		e.win[i].Window = w
		// The epoch leaving a window is w.Epochs back from the write
		// position; a window of w.Epochs >= 1 first drops the epoch at 0.
		if w.Epochs < 0 {
			e.win[i].leave = -w.Epochs % n
		}
		e.win[i].burn = e.burn(0, w.Epochs)
	}
	return e
}

// observe folds one epoch's badness in and refreshes the verdicts.
func (e *sloEval) observe(bad bool) {
	v := 0
	if bad {
		v = 1
		e.totalBad++
	}
	e.totalEpochs++
	prev := e.seen
	if e.seen < e.n {
		e.seen++
	}
	e.burning, e.alerting = false, len(e.win) > 0
	e.worstBurn = 0
	for i := range e.win {
		w := &e.win[i]
		d := v
		if prev >= w.Epochs {
			d -= int(e.ring[w.leave>>6] >> (w.leave & 63) & 1)
			if w.leave++; w.leave == e.n {
				w.leave = 0
			}
		}
		// The burn rate moves only with the bad count, or with the span
		// while it is still filling.
		if d != 0 || prev < w.Epochs {
			w.bad += d
			w.burn = e.burn(w.bad, w.Epochs)
		}
		if w.burn >= w.MaxBurn {
			e.burning = true
		} else {
			e.alerting = false
		}
		if w.burn > e.worstBurn {
			e.worstBurn = w.burn
		}
	}
	word, bit := &e.ring[e.pos>>6], uint64(1)<<(e.pos&63)
	if bad {
		*word |= bit
	} else {
		*word &^= bit
	}
	if e.pos++; e.pos == e.n {
		e.pos = 0
	}
}

// burn returns the burn rate of bad bad epochs over a window of epochs
// epochs, of which only the ones observed so far count.
func (e *sloEval) burn(bad, epochs int) float64 {
	span := epochs
	if e.seen < span {
		span = e.seen
	}
	if span == 0 {
		return 0
	}
	return (float64(bad) / float64(span)) / e.budget
}

// isBad evaluates the spec's badness condition on one epoch. since is
// the number of epochs since the last target change; trackErr is
// TrackErr(ev), computed once per epoch by the caller.
func (s Spec) isBad(ev *Event, since int, trackErr float64) bool {
	switch s.Signal {
	case SignalTrackingError:
		return trackErr > s.Threshold
	case SignalOvershoot:
		return above(ev.IPS, ev.IPSTarget) > s.Threshold ||
			above(ev.PowerW, ev.PowerTarget) > s.Threshold
	case SignalSettling:
		return since > s.Grace && trackErr > s.Threshold
	case SignalPowerBudget:
		return above(ev.PowerW, ev.PowerTarget) > s.Threshold
	case SignalFallback:
		return ev.Mode != ModeEngaged
	}
	return false
}

// TrackErr is the worst-channel relative tracking error of ev's
// measured outputs against its targets, max over IPS and power of
// |y-r|/r. A channel whose target is not positive contributes 0; a
// non-finite measurement makes the error +Inf (maximally bad). The SLO
// tracking and settling signals, the per-loop RMS gauge and the history
// store's track_err signal all score this one function.
func TrackErr(ev *Event) float64 {
	worst := relErr(ev.IPS, ev.IPSTarget)
	if p := relErr(ev.PowerW, ev.PowerTarget); p > worst {
		worst = p
	}
	return worst
}

// relErr is |v-target|/target (0 when the target is not positive, +Inf
// for a non-finite measurement).
func relErr(v, target float64) float64 {
	if !(target > 0) {
		return 0
	}
	e := math.Abs(v-target) / target
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// above is the relative excess of v over target from above only.
func above(v, target float64) float64 {
	if !(target > 0) {
		return 0
	}
	e := (v - target) / target
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	if e < 0 {
		return 0
	}
	return e
}

// WindowStatus reports one window's burn state.
type WindowStatus struct {
	Epochs  int     `json:"epochs"`
	Burn    float64 `json:"burn"`
	MaxBurn float64 `json:"max_burn"`
	Burning bool    `json:"burning"`
}

// SLOStatus reports one SLO's state for one loop.
type SLOStatus struct {
	Name        string         `json:"name"`
	Signal      string         `json:"signal"`
	Objective   float64        `json:"objective"`
	BadEpochs   uint64         `json:"bad_epochs"`
	TotalEpochs uint64         `json:"total_epochs"`
	Windows     []WindowStatus `json:"windows"`
	WorstBurn   float64        `json:"worst_burn"`
	Alerting    bool           `json:"alerting"`
}

// status snapshots the evaluator.
func (e *sloEval) status() SLOStatus {
	st := SLOStatus{
		Name:        e.spec.Name,
		Signal:      e.spec.Signal.String(),
		Objective:   e.spec.Objective,
		BadEpochs:   e.totalBad,
		TotalEpochs: e.totalEpochs,
		Windows:     make([]WindowStatus, len(e.spec.Windows)),
		Alerting:    e.alerting,
	}
	for i, w := range e.win {
		b := w.burn
		st.Windows[i] = WindowStatus{Epochs: w.Epochs, Burn: b, MaxBurn: w.MaxBurn, Burning: b >= w.MaxBurn}
		if b > st.WorstBurn {
			st.WorstBurn = b
		}
	}
	return st
}
