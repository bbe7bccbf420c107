package obs

import (
	"fmt"
	"math"
	"math/bits"
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
	// to burn past its threshold. Empty specs never alert. Each window
	// spans at least one epoch.
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

// powerBand is the paper's recovery band, power within 15% above its
// target: the power-budget SLO's threshold, and the excess past which a
// fleet loop counts a power-violation epoch.
const powerBand = 0.15

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
			Threshold: powerBand,
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
// bad-epoch bits as long as the longest window. An epoch writes its
// bit over the oldest one and advances the counts, nothing else. A
// window's bad count is the popcount of the ring's last
// min(Epochs, epochs observed) bits, taken when a reader asks: the
// scrape funcs, the fleet verdict behind /healthz, and /slo. An epoch
// is O(1) with no allocation; a read costs one word per 64 epochs of
// each window. A loop's rings stay a few hundred bytes, so a fleet's
// fit in cache.
type sloEval struct {
	spec   Spec
	budget float64

	ring []uint64 // bad flags, one bit per epoch
	n    int      // ring length in epochs: the longest window
	pos  int      // next write index
	seen int      // epochs observed, capped at n

	totalBad    uint64
	totalEpochs uint64
}

// newSLOEval returns an evaluator of spec, every window of which spans
// at least one epoch (NewFleet checks).
func newSLOEval(spec Spec) *sloEval {
	n := 1
	for _, w := range spec.Windows {
		n = max(n, w.Epochs)
	}
	return &sloEval{spec: spec, budget: spec.errBudget(), ring: make([]uint64, (n+63)/64), n: n}
}

// observe writes one epoch's bad bit over the oldest one.
func (e *sloEval) observe(bad bool) {
	word, bit := &e.ring[e.pos>>6], uint64(1)<<(e.pos&63)
	if bad {
		*word |= bit
		e.totalBad++
	} else {
		*word &^= bit
	}
	e.totalEpochs++
	if e.seen < e.n {
		e.seen++
	}
	if e.pos++; e.pos == e.n {
		e.pos = 0
	}
}

// burn returns window w's burn rate: the bad fraction of its span, the
// epochs of it observed so far, over the error budget.
func (e *sloEval) burn(w Window) float64 {
	span := min(w.Epochs, e.seen)
	if span == 0 {
		return 0
	}
	// The span is the ring's last span bits before pos, wrapping past
	// its start.
	var bad int
	if lo := e.pos - span; lo >= 0 {
		bad = e.ones(lo, e.pos)
	} else {
		bad = e.ones(0, e.pos) + e.ones(lo+e.n, e.n)
	}
	return (float64(bad) / float64(span)) / e.budget
}

// ones counts the bad bits at ring positions [lo, hi).
func (e *sloEval) ones(lo, hi int) int {
	if lo == hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)              // bits lo... of the first word
	tail := ^uint64(0) >> (63 - ((hi - 1) & 63)) // bits ...hi-1 of the last word
	if first == last {
		return bits.OnesCount64(e.ring[first] & head & tail)
	}
	c := bits.OnesCount64(e.ring[first]&head) + bits.OnesCount64(e.ring[last]&tail)
	for _, w := range e.ring[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// verdict counts every window once and returns the worst burn rate,
// whether any window burns past its threshold and whether every one
// does (the alert). When ws is not nil it receives each window's
// status.
func (e *sloEval) verdict(ws []WindowStatus) (worst float64, burning, alerting bool) {
	alerting = len(e.spec.Windows) > 0
	for i, w := range e.spec.Windows {
		b := e.burn(w)
		hot := b >= w.MaxBurn
		if ws != nil {
			ws[i] = WindowStatus{Epochs: w.Epochs, Burn: b, MaxBurn: w.MaxBurn, Burning: hot}
		}
		burning = burning || hot
		alerting = alerting && hot
		if b > worst {
			worst = b
		}
	}
	if e.seen == 0 { // no epoch, no verdict: a threshold of 0 burns only once scored
		return worst, false, false
	}
	return worst, burning, alerting
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

// status snapshots the evaluator and reports whether any window burns.
func (e *sloEval) status() (SLOStatus, bool) {
	st := SLOStatus{
		Name:        e.spec.Name,
		Signal:      e.spec.Signal.String(),
		Objective:   e.spec.Objective,
		BadEpochs:   e.totalBad,
		TotalEpochs: e.totalEpochs,
		Windows:     make([]WindowStatus, len(e.spec.Windows)),
	}
	var burning bool
	st.WorstBurn, burning, st.Alerting = e.verdict(st.Windows)
	return st, burning
}
