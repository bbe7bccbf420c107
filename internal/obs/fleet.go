package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"mimoctl/internal/telemetry"
)

// Options configures a Fleet. Every field is optional: the zero value
// yields a fleet that evaluates the default SLOs with no metrics and no
// events.
type Options struct {
	// Registry, when enabled, parents a per-loop telemetry scope
	// (label loop="<name>") for every registered loop. The fleet bounds
	// the scope cardinality via the registry's LRU (ScopeLimit).
	Registry *telemetry.Registry
	// ScopeLimit bounds live per-loop scopes (default 1024, <0 disables
	// the bound).
	ScopeLimit int
	// Bus, when non-nil, receives one Event per observed epoch per
	// loop.
	Bus *Bus
	// Specs are the control SLOs evaluated per loop; nil selects
	// DefaultSpecs().
	Specs []Spec
	// EpochPeriod converts violation epochs to wall time in reports
	// (default 50 µs, the paper's epoch).
	EpochPeriod time.Duration
}

// Fleet is the loop registry of the observability plane.
type Fleet struct {
	opts  Options
	specs []Spec

	mu     sync.Mutex
	loops  map[string]*Loop
	byID   []*Loop
	nextID uint32
}

// NewFleet builds a fleet.
func NewFleet(opts Options) *Fleet {
	if opts.Specs == nil {
		opts.Specs = DefaultSpecs()
	}
	if opts.EpochPeriod <= 0 {
		opts.EpochPeriod = 50 * time.Microsecond
	}
	if opts.ScopeLimit == 0 {
		opts.ScopeLimit = 1024
	}
	if opts.Registry.Enabled() && opts.ScopeLimit > 0 {
		opts.Registry.SetScopeLimit(opts.ScopeLimit)
	}
	f := &Fleet{opts: opts, specs: opts.Specs, loops: make(map[string]*Loop)}
	if bus := opts.Bus; bus != nil && opts.Registry.Enabled() {
		// Bus health as first-class metrics: drops and pump lag are the
		// two signals that say the observability plane itself is shedding
		// load. Scrape-time reads of the bus's atomics — no write-through
		// on the publish path.
		reg := opts.Registry
		reg.CounterFunc("obs_bus_published_total", "events accepted by the bus ring",
			func() float64 { p, _, _ := bus.Stats(); return float64(p) })
		reg.CounterFunc("obs_bus_dropped_total", "events dropped on a full bus ring",
			func() float64 { _, d, _ := bus.Stats(); return float64(d) })
		reg.CounterFunc("obs_bus_subscriber_dropped_total", "events dropped on slow live subscribers",
			func() float64 { _, _, s := bus.Stats(); return float64(s) })
		reg.GaugeFunc("obs_bus_occupancy_hwm", "pump-lag high-water mark: worst ring occupancy seen at publish",
			func() float64 { return float64(bus.OccupancyHWM()) })
		reg.GaugeFunc("obs_bus_capacity", "bus ring capacity in events",
			func() float64 { return float64(bus.Cap()) })
	}
	return f
}

// Bus returns the attached event bus (nil when events are off).
func (f *Fleet) Bus() *Bus { return f.opts.Bus }

// Registry returns the registry the loop scopes derive from (nil when
// the fleet keeps no metrics).
func (f *Fleet) Registry() *telemetry.Registry { return f.opts.Registry }

// LoopName resolves a loop id for the event sinks.
func (f *Fleet) LoopName(id uint32) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) < len(f.byID) {
		return f.byID[id].name
	}
	return ""
}

// Register adds (or returns) the loop named name. The loop gets its own
// telemetry scope and a fresh SLO evaluator per spec.
func (f *Fleet) Register(name string) *Loop {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.loops[name]; ok {
		return l
	}
	l := &Loop{
		fleet: f,
		id:    f.nextID,
		name:  name,
		slos:  make([]*sloEval, len(f.specs)),
	}
	f.nextID++
	for i, spec := range f.specs {
		l.slos[i] = newSLOEval(spec)
	}
	if reg := f.opts.Registry; reg.Enabled() {
		scope := reg.Scope(telemetry.L("loop", name))
		l.scope = scope
		l.mEpochs = scope.Counter("loop_epochs_total", "epochs observed for this loop")
		l.mFallback = scope.Counter("loop_fallback_epochs_total", "epochs pinned at the safe configuration")
		l.mTrackRMS = scope.Gauge("loop_tracking_error_rms", "windowed RMS of the worst-channel relative tracking error")
		l.mViolation = scope.Counter("loop_power_violation_epochs_total", "epochs with power above target beyond the budget threshold")
		l.mBurn = make([]telemetry.Gauge, len(f.specs))
		l.mBad = make([]telemetry.Counter, len(f.specs))
		l.mAlert = make([]telemetry.Gauge, len(f.specs))
		for i, spec := range f.specs {
			l.mBurn[i] = scope.Gauge("slo_burn_rate", "worst-window burn rate", telemetry.L("slo", spec.Name))
			l.mBad[i] = scope.Counter("slo_bad_epochs_total", "epochs violating the SLO condition", telemetry.L("slo", spec.Name))
			l.mAlert[i] = scope.Gauge("slo_alerting", "1 while every burn window exceeds its threshold", telemetry.L("slo", spec.Name))
		}
	}
	f.loops[name] = l
	f.byID = append(f.byID, l)
	return l
}

// Loop returns a registered loop by name (nil when unknown).
func (f *Fleet) Loop(name string) *Loop {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loops[name]
}

// Loop is one registered control loop's observer handle.
type Loop struct {
	fleet *Fleet
	id    uint32
	name  string

	mu    sync.Mutex
	epoch uint64
	slos  []*sloEval

	prevIPSTarget, prevPowerTarget float64
	haveTargets                    bool
	sinceTargetChange              int

	// Windowed tracking-error RMS (EMA of squared error).
	emaSq float64

	violationEpochs uint64
	fallbackEpochs  uint64

	// Last observed Event.Mode, Event.Health and Event.Guardband: the
	// loop's live state for Healthz and the /slo mode column.
	mode, health uint8
	guardband    float64

	// Per-loop scoped instruments (nil when the fleet has no registry).
	scope      *telemetry.Registry
	mEpochs    telemetry.Counter
	mFallback  telemetry.Counter
	mTrackRMS  telemetry.Gauge
	mViolation telemetry.Counter
	mBurn      []telemetry.Gauge
	mBad       []telemetry.Counter
	mAlert     []telemetry.Gauge
}

// Name returns the registered loop name.
func (l *Loop) Name() string { return l.name }

// ID returns the fleet-assigned loop id.
func (l *Loop) ID() uint32 { return l.id }

// Scope returns the loop's telemetry scope (nil registry semantics
// apply when the fleet was built without one).
func (l *Loop) Scope() *telemetry.Registry { return l.scope }

// rmsAlpha is the EMA coefficient of the tracking-error RMS gauge
// (~300-epoch window).
const rmsAlpha = 1.0 / 256

// Observe folds one epoch in — SLO rings, per-loop gauges — and, when
// a bus is attached, publishes the event. It stamps ev's LoopID, Epoch
// and FlagTargetChange; the caller fills the rest. Nil-safe (a nil loop
// ignores the event) so call sites need no events-on check; the whole
// path is allocation-free (TestObserveAllocFree).
func (l *Loop) Observe(ev *Event) {
	if l.ObserveInto(ev) {
		l.fleet.opts.Bus.Publish(ev)
	}
}

// Bus returns the event bus of the owning fleet (nil when events are
// off or the loop handle is nil).
func (l *Loop) Bus() *Bus {
	if l == nil {
		return nil
	}
	return l.fleet.opts.Bus
}

// ObserveInto is Observe with the bus publish factored out: it stamps
// and folds ev exactly as Observe does and reports whether the fleet
// carries a bus, i.e. whether Observe would have published ev. The
// fleet engine (internal/batch) has its loops fill their events in place
// in one epoch batch and ships it in a single bulk PublishBatch instead
// of N ring reservations.
func (l *Loop) ObserveInto(ev *Event) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	l.epoch++
	ev.LoopID, ev.Epoch = l.id, l.epoch
	ev.Flags &^= FlagTargetChange
	if !l.haveTargets || ev.IPSTarget != l.prevIPSTarget || ev.PowerTarget != l.prevPowerTarget {
		if l.haveTargets {
			ev.Flags |= FlagTargetChange
		}
		l.prevIPSTarget, l.prevPowerTarget = ev.IPSTarget, ev.PowerTarget
		l.haveTargets = true
		l.sinceTargetChange = 0
	} else {
		l.sinceTargetChange++
	}

	l.mode, l.health, l.guardband = ev.Mode, ev.Health, ev.Guardband
	trackErr := TrackErr(ev)
	for i, e := range l.slos {
		bad := e.spec.isBad(ev, l.sinceTargetChange, trackErr)
		e.observe(bad)
		if l.mBurn != nil {
			l.mBurn[i].Set(e.worstBurn)
			if bad {
				l.mBad[i].Inc()
			}
			if e.alerting {
				l.mAlert[i].Set(1)
			} else {
				l.mAlert[i].Set(0)
			}
		}
	}

	// Derived per-loop signals shared by every spec.
	if !math.IsInf(trackErr, 0) {
		l.emaSq += rmsAlpha * (trackErr*trackErr - l.emaSq)
	}
	if above(ev.PowerW, ev.PowerTarget) > 0.15 {
		l.violationEpochs++
		if l.mViolation != nil {
			l.mViolation.Inc()
		}
	}
	if ev.Mode != ModeEngaged {
		l.fallbackEpochs++
		if l.mFallback != nil {
			l.mFallback.Inc()
		}
	}
	if l.mEpochs != nil {
		l.mEpochs.Inc()
		l.mTrackRMS.Set(math.Sqrt(l.emaSq))
	}
	l.mu.Unlock()
	return l.fleet.opts.Bus != nil
}

// Level grades the fleet's SLO verdict.
type Level int

const (
	// LevelOK: no loop is burning through its error budget abnormally.
	LevelOK Level = iota
	// LevelWarn: at least one burn window is over threshold somewhere,
	// but no SLO has every window burning.
	LevelWarn
	// LevelFail: at least one loop has an SLO with every window burning
	// — the multi-window alert.
	LevelFail
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelFail:
		return "fail"
	}
	return "ok"
}

// Verdict is the fleet-level SLO judgment reported on /slo.
type Verdict struct {
	Level         Level
	Detail        string
	Loops         int
	BurningLoops  int
	AlertingLoops int
}

// loopHealth is one loop's scrape-time health input: its last observed
// mode, model-health level and guardband consumption, and the first SLO
// (in spec order) alerting and burning on it, "" when none.
type loopHealth struct {
	name              string
	mode, health      uint8
	guardband         float64
	alerting, burning string
}

// scan snapshots every loop's health input in registration order.
func (f *Fleet) scan() []loopHealth {
	f.mu.Lock()
	loops := append([]*Loop(nil), f.byID...)
	f.mu.Unlock()
	hs := make([]loopHealth, len(loops))
	for i, l := range loops {
		l.mu.Lock()
		h := loopHealth{name: l.name, mode: l.mode, health: l.health, guardband: l.guardband}
		for _, e := range l.slos {
			if e.alerting && h.alerting == "" {
				h.alerting = e.spec.Name
			}
			if e.burning && h.burning == "" {
				h.burning = e.spec.Name
			}
		}
		l.mu.Unlock()
		hs[i] = h
	}
	return hs
}

// Verdict returns the current fleet-level judgment.
func (f *Fleet) Verdict() Verdict {
	hs := f.scan()
	v := Verdict{Loops: len(hs)}
	for _, h := range hs {
		if h.alerting != "" {
			v.AlertingLoops++
		}
		if h.burning != "" {
			v.BurningLoops++
		}
	}
	alerting, burning, n := v.AlertingLoops, v.BurningLoops, v.Loops
	switch {
	case alerting > 0:
		v.Level = LevelFail
		v.Detail = fmt.Sprintf("%d/%d loops alerting on a control SLO", alerting, n)
	case burning > 0:
		v.Level = LevelWarn
		v.Detail = fmt.Sprintf("%d/%d loops burning error budget", burning, n)
	default:
		v.Detail = fmt.Sprintf("%d loops within SLO", n)
	}
	return v
}

// Model-health levels recorded in Event.Health (mirrors health.Level).
const (
	healthWarn uint8 = 1
	healthFail uint8 = 2
)

// Healthz answers /healthz for this fleet. It is computed at scrape time
// from each registered loop's last observed Event.Mode and Event.Health
// and its SLO state. The first failing tier, in precedence order, makes
// the answer unhealthy and names the first offending loop in
// registration order:
//
//  1. a loop in supervisor fallback;
//  2. a loop whose model-health monitor fails;
//  3. a loop alerting on a control SLO.
//
// Otherwise the answer is healthy and lists every active warn: a loop
// whose model-health monitor warns, a loop burning error budget, then
// each of the caller's extra sources (for example
// tsdb.Detector.Annotation) in argument order.
func (f *Fleet) Healthz(warns ...func() (detail string, active bool)) (ok bool, detail string) {
	hs := f.scan()
	n := len(hs)
	// first returns the first loop matching match and how many match.
	first := func(match func(h *loopHealth) bool) (*loopHealth, int) {
		var hit *loopHealth
		k := 0
		for i := range hs {
			if match(&hs[i]) {
				if hit == nil {
					hit = &hs[i]
				}
				k++
			}
		}
		return hit, k
	}
	if h, k := first(func(h *loopHealth) bool { return h.mode != ModeEngaged }); h != nil {
		return false, fmt.Sprintf("supervisor fallback: loop %s pinned at the safe configuration (%d/%d loops in fallback)", h.name, k, n)
	}
	if h, k := first(func(h *loopHealth) bool { return h.health >= healthFail }); h != nil {
		return false, fmt.Sprintf("model health fail: loop %s%s (%d/%d loops failing)", h.name, guardbandNote(h.guardband), k, n)
	}
	if h, k := first(func(h *loopHealth) bool { return h.alerting != "" }); h != nil {
		return false, fmt.Sprintf("control SLO fail: loop %s alerting on %s (%d/%d loops alerting)", h.name, h.alerting, k, n)
	}
	var notes []string
	if h, k := first(func(h *loopHealth) bool { return h.health == healthWarn }); h != nil {
		notes = append(notes, fmt.Sprintf("model health warn: loop %s%s (%d/%d loops warning)", h.name, guardbandNote(h.guardband), k, n))
	}
	if h, k := first(func(h *loopHealth) bool { return h.burning != "" }); h != nil {
		notes = append(notes, fmt.Sprintf("control SLO warn: loop %s burning error budget on %s (%d/%d loops burning)", h.name, h.burning, k, n))
	}
	for _, w := range warns {
		if d, active := w(); active && d != "" {
			notes = append(notes, d)
		}
	}
	detail = fmt.Sprintf("%d loops engaged", n)
	if len(notes) > 0 {
		detail += "; " + strings.Join(notes, "; ")
	}
	return true, detail
}

// guardbandNote renders a guardband consumption for a Healthz detail
// ("" when the loop reported none).
func guardbandNote(g float64) string {
	if math.IsNaN(g) || math.IsInf(g, 0) {
		return ""
	}
	return fmt.Sprintf(", guardband consumption %.0f%%", 100*g)
}

// LoopStatus is one loop's row of the fleet report.
type LoopStatus struct {
	Loop   string `json:"loop"`
	Epochs uint64 `json:"epochs"`
	Mode   string `json:"mode"`

	TrackingRMS      telemetry.JSONFloat `json:"tracking_error_rms"`
	FallbackEpochs   uint64              `json:"fallback_epochs"`
	ViolationEpochs  uint64              `json:"power_violation_epochs"`
	ViolationSeconds telemetry.JSONFloat `json:"power_violation_seconds"`
	SLOs             []SLOStatus         `json:"slos"`
	WorstBurn        float64             `json:"worst_burn"`
	WorstSLO         string              `json:"worst_slo"`
	Alerting         bool                `json:"alerting"`
}

// FleetReport is the /slo payload: loops sorted by worst burn rate,
// hottest first.
type FleetReport struct {
	Loops         int          `json:"loops"`
	Level         string       `json:"level"`
	Detail        string       `json:"detail"`
	AlertingLoops int          `json:"alerting_loops"`
	BurningLoops  int          `json:"burning_loops"`
	Rows          []LoopStatus `json:"rows"`

	EventsPublished uint64 `json:"events_published"`
	EventsDropped   uint64 `json:"events_dropped"`
}

// Report snapshots every loop, sorted by worst burn descending (ties by
// name, so the report is deterministic).
func (f *Fleet) Report() FleetReport {
	f.mu.Lock()
	loops := append([]*Loop(nil), f.byID...)
	f.mu.Unlock()
	v := f.Verdict()
	rep := FleetReport{
		Loops: v.Loops, Level: v.Level.String(), Detail: v.Detail,
		AlertingLoops: v.AlertingLoops, BurningLoops: v.BurningLoops,
	}
	if bus := f.opts.Bus; bus != nil {
		rep.EventsPublished, rep.EventsDropped, _ = bus.Stats()
	}
	for _, l := range loops {
		rep.Rows = append(rep.Rows, l.status(f.opts.EpochPeriod))
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].WorstBurn != rep.Rows[j].WorstBurn {
			return rep.Rows[i].WorstBurn > rep.Rows[j].WorstBurn
		}
		return rep.Rows[i].Loop < rep.Rows[j].Loop
	})
	return rep
}

// status snapshots one loop.
func (l *Loop) status(epochPeriod time.Duration) LoopStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LoopStatus{
		Loop:            l.name,
		Epochs:          l.epoch,
		TrackingRMS:     telemetry.JSONFloat(math.Sqrt(l.emaSq)),
		FallbackEpochs:  l.fallbackEpochs,
		ViolationEpochs: l.violationEpochs,
		ViolationSeconds: telemetry.JSONFloat(
			float64(l.violationEpochs) * epochPeriod.Seconds()),
	}
	st.Mode = "engaged"
	if l.mode != ModeEngaged {
		st.Mode = "fallback"
	}
	for _, e := range l.slos {
		s := e.status()
		st.SLOs = append(st.SLOs, s)
		if s.WorstBurn >= st.WorstBurn {
			if s.WorstBurn > st.WorstBurn || st.WorstSLO == "" {
				st.WorstBurn, st.WorstSLO = s.WorstBurn, s.Name
			}
		}
		st.Alerting = st.Alerting || s.Alerting
	}
	return st
}
