package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"mimoctl/internal/telemetry"
)

// The oracle the scrape-time loop families are held against: a loop's
// event stream folded from scratch, outside Loop, with the reference
// SLO evaluator and the direct badness rules. It and Scrape are
// exported for the external reconciliation tests (reconcile_test.go).

// EventFold folds one loop's events, in epoch order, into the value
// every per-loop family must read after them.
type EventFold struct {
	// Epochs, FallbackEpochs and ViolationEpochs count the events, those
	// whose Mode is not engaged, and those with power more than 15%
	// above its target.
	Epochs, FallbackEpochs, ViolationEpochs uint64

	slos  []*refSLOEval
	emaSq float64

	since            int
	prevIPS, prevPow float64
	haveTargets      bool
}

// NewEventFold returns an empty fold scoring specs.
func NewEventFold(specs []Spec) *EventFold {
	f := &EventFold{slos: make([]*refSLOEval, len(specs))}
	for i, s := range specs {
		f.slos[i] = newRefSLOEval(s)
	}
	return f
}

// Add folds the next event in.
func (f *EventFold) Add(ev *Event) {
	if !f.haveTargets || ev.IPSTarget != f.prevIPS || ev.PowerTarget != f.prevPow {
		f.prevIPS, f.prevPow, f.haveTargets, f.since = ev.IPSTarget, ev.PowerTarget, true, 0
	} else {
		f.since++
	}
	for _, e := range f.slos {
		e.observe(directBad(e.spec, ev, f.since))
	}
	if worst := TrackErr(ev); !math.IsInf(worst, 0) {
		f.emaSq += rmsAlpha * (worst*worst - f.emaSq)
	}
	f.Epochs++
	if above(ev.PowerW, ev.PowerTarget) > 0.15 {
		f.ViolationEpochs++
	}
	if ev.Mode != ModeEngaged {
		f.FallbackEpochs++
	}
}

// TrackingRMS is the windowed tracking-error RMS after the events.
func (f *EventFold) TrackingRMS() float64 { return math.Sqrt(f.emaSq) }

// SLO returns spec i's bad-epoch count, its worst burn rate recomputed
// over the windows, and 1 while it alerts (else 0).
func (f *EventFold) SLO(i int) (bad uint64, worstBurn, alerting float64) {
	e := f.slos[i]
	for j, w := range e.spec.Windows {
		if b := e.burn(j, w); b > worstBurn {
			worstBurn = b
		}
	}
	if e.alerting {
		alerting = 1
	}
	return e.totalBad, worstBurn, alerting
}

// Series is one scrape: each sample's value by its series name and
// rendered label set, e.g. `loop_epochs_total{loop="a"}`.
type Series map[string]string

// Scrape renders reg's exposition and parses its samples.
func Scrape(t testing.TB, reg *telemetry.Registry) Series {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return ParseExposition(sb.String())
}

// ParseExposition parses the samples of a Prometheus text exposition.
func ParseExposition(text string) Series {
	s := Series{}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			s[line[:i]] = line[i+1:]
		}
	}
	return s
}

// Uint returns series key as a count; it fails t when the sample is
// missing or is not an integer.
func (s Series) Uint(t testing.TB, key string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s[key], 10, 64)
	if err != nil {
		t.Fatalf("series %s: %q is not a count", key, s[key])
	}
	return v
}

// Float returns series key's value; it fails t when the sample is
// missing or malformed. The exposition renders floats in their
// shortest round-trip form, so the value has the instrument's bits.
func (s Series) Float(t testing.TB, key string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s[key], 64)
	if err != nil {
		t.Fatalf("series %s: %q is not a number", key, s[key])
	}
	return v
}
