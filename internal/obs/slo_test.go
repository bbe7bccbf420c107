package obs

import (
	"math"
	"math/rand"
	"testing"

	"mimoctl/internal/telemetry"
)

func trackingSpec() Spec {
	return Spec{
		Name: "t", Signal: SignalTrackingError, Threshold: 0.25, Objective: 0.90,
		Windows: []Window{{Epochs: 8, MaxBurn: 3}, {Epochs: 32, MaxBurn: 1.5}},
	}
}

func TestSLOAlertsOnlyWhenAllWindowsBurn(t *testing.T) {
	e := newSLOEval(trackingSpec())
	// Budget 0.10. Short window 8 at MaxBurn 3 needs bad fraction >= 0.3;
	// long window 32 at 1.5 needs >= 0.15.
	for i := 0; i < 32; i++ {
		e.observe(false)
	}
	if e.burning || e.alerting {
		t.Fatal("clean history must not burn")
	}
	// Four bad epochs: short-window fraction 4/8=0.5 -> burn 5 (burning),
	// long-window fraction 4/32=0.125 -> burn 1.25 (not burning) => no alert.
	for i := 0; i < 4; i++ {
		e.observe(true)
	}
	if !e.burning {
		t.Fatal("short window should burn after 4 consecutive bad epochs")
	}
	if e.alerting {
		t.Fatal("alert requires every window to burn")
	}
	// Keep it bad: long window catches up and the alert fires.
	for i := 0; i < 8; i++ {
		e.observe(true)
	}
	if !e.alerting {
		t.Fatalf("sustained badness must alert (windows %+v)", e.win)
	}
	// Recovery: a clean stretch clears the short window first, dropping
	// the alert.
	for i := 0; i < 8; i++ {
		e.observe(false)
	}
	if e.alerting {
		t.Fatal("alert must clear once the short window is clean")
	}
}

func TestSLOWindowAccounting(t *testing.T) {
	e := newSLOEval(Spec{
		Name: "w", Signal: SignalFallback, Objective: 0.5,
		Windows: []Window{{Epochs: 4, MaxBurn: 100}},
	})
	pattern := []bool{true, false, true, true, false, false, false, true}
	for _, b := range pattern {
		e.observe(b)
	}
	// Last 4 epochs: false false false true -> 1 bad.
	if e.win[0].bad != 1 {
		t.Fatalf("window bad count = %d, want 1", e.win[0].bad)
	}
	if got := e.win[0].burn; math.Abs(got-(0.25/0.5)) > 1e-12 {
		t.Fatalf("burn = %g, want 0.5", got)
	}
	if e.totalBad != 4 || e.totalEpochs != 8 {
		t.Fatalf("totals = %d/%d, want 4/8", e.totalBad, e.totalEpochs)
	}
}

func TestSLOPartialWindow(t *testing.T) {
	e := newSLOEval(Spec{
		Name: "p", Signal: SignalFallback, Objective: 0.9,
		Windows: []Window{{Epochs: 100, MaxBurn: 2}},
	})
	e.observe(true)
	// One bad of one seen: fraction 1.0, budget 0.1 -> burn 10.
	if got := e.worstBurn; math.Abs(got-10) > 1e-12 {
		t.Fatalf("partial-window burn = %g, want 10", got)
	}
}

func TestIsBadSignals(t *testing.T) {
	s := Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10}
	cases := []struct {
		name  string
		spec  Spec
		mut   func(*Event)
		since int
		want  bool
	}{
		{"tracking-ok", Spec{Signal: SignalTrackingError, Threshold: 0.25}, nil, 0, false},
		{"tracking-low-ips", Spec{Signal: SignalTrackingError, Threshold: 0.25},
			func(s *Event) { s.IPS = 60 }, 0, true},
		{"tracking-nan", Spec{Signal: SignalTrackingError, Threshold: 0.25},
			func(s *Event) { s.IPS = math.NaN() }, 0, true},
		{"overshoot-under-is-fine", Spec{Signal: SignalOvershoot, Threshold: 0.1},
			func(s *Event) { s.IPS = 50 }, 0, false},
		{"overshoot-over", Spec{Signal: SignalOvershoot, Threshold: 0.1},
			func(s *Event) { s.PowerW = 12 }, 0, true},
		{"settling-in-grace", Spec{Signal: SignalSettling, Threshold: 0.25, Grace: 10},
			func(s *Event) { s.IPS = 10 }, 5, false},
		{"settling-past-grace", Spec{Signal: SignalSettling, Threshold: 0.25, Grace: 10},
			func(s *Event) { s.IPS = 10 }, 11, true},
		{"power-budget", Spec{Signal: SignalPowerBudget, Threshold: 0.15},
			func(s *Event) { s.PowerW = 12 }, 0, true},
		{"power-budget-under", Spec{Signal: SignalPowerBudget, Threshold: 0.15},
			func(s *Event) { s.PowerW = 5 }, 0, false},
		{"fallback", Spec{Signal: SignalFallback}, func(s *Event) { s.Mode = ModeFallback }, 0, true},
		{"no-target-no-badness", Spec{Signal: SignalTrackingError, Threshold: 0.25},
			func(s *Event) { s.IPSTarget, s.PowerTarget = 0, 0; s.IPS = 1e9 }, 0, false},
	}
	for _, tc := range cases {
		sample := s
		if tc.mut != nil {
			tc.mut(&sample)
		}
		if got := tc.spec.isBad(&sample, tc.since, TrackErr(&sample)); got != tc.want {
			t.Errorf("%s: isBad = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDefaultSpecsSane(t *testing.T) {
	for _, s := range DefaultSpecs() {
		if s.Name == "" || len(s.Windows) == 0 {
			t.Fatalf("spec %+v incomplete", s)
		}
		if s.errBudget() <= 0 {
			t.Fatalf("spec %s has non-positive error budget", s.Name)
		}
		for _, w := range s.Windows {
			if w.Epochs <= 0 || w.MaxBurn <= 0 {
				t.Fatalf("spec %s window %+v invalid", s.Name, w)
			}
		}
	}
}

// directBad is the per-spec badness condition evaluating TrackErr
// itself, once per tracking or settling spec.
func directBad(s Spec, ev *Event, since int) bool {
	switch s.Signal {
	case SignalTrackingError:
		return TrackErr(ev) > s.Threshold
	case SignalOvershoot:
		return above(ev.IPS, ev.IPSTarget) > s.Threshold ||
			above(ev.PowerW, ev.PowerTarget) > s.Threshold
	case SignalSettling:
		return since > s.Grace && TrackErr(ev) > s.Threshold
	case SignalPowerBudget:
		return above(ev.PowerW, ev.PowerTarget) > s.Threshold
	case SignalFallback:
		return ev.Mode != ModeEngaged
	}
	return false
}

// TestObserveMatchesDirectEvaluation checks ObserveInto — one TrackErr
// per epoch shared by every spec and the RMS family, and the worst burn
// recorded by observe — against a fold of the same events (EventFold)
// that evaluates TrackErr per spec and, with the reference evaluator,
// recomputes the worst burn over the windows. Every per-loop series of
// a scrape must agree bit for bit, every epoch.
func TestObserveMatchesDirectEvaluation(t *testing.T) {
	specs := append(DefaultSpecs(),
		Spec{Name: "settling", Signal: SignalSettling, Threshold: 0.1, Grace: 40, Objective: 0.9,
			Windows: []Window{{Epochs: 64, MaxBurn: 2}, {Epochs: 512, MaxBurn: 1}}},
		Spec{Name: "overshoot", Signal: SignalOvershoot, Threshold: 0.05, Objective: 0.8,
			Windows: []Window{{Epochs: 32, MaxBurn: 1.5}}})
	reg := telemetry.NewRegistry()
	f := NewFleet(Options{Registry: reg, Specs: specs})
	l := f.Register("direct")
	fold := NewEventFold(specs)
	rng := rand.New(rand.NewSource(5))
	ipsT, powT := 2.5, 2.0
	for k := 0; k < 6000; k++ {
		if k%700 == 0 {
			ipsT, powT = 1+3*rng.Float64(), 1+2*rng.Float64()
		}
		ev := Event{IPSTarget: ipsT, PowerTarget: powT,
			IPS: ipsT * (1 + 0.3*rng.NormFloat64()), PowerW: powT * (1 + 0.2*rng.NormFloat64())}
		switch rng.Intn(40) {
		case 0:
			ev.IPS = math.NaN()
		case 1:
			ev.PowerW = math.Inf(1)
		case 2:
			ev.Mode = ModeFallback
		case 3:
			ev.IPSTarget = 0
		}
		l.Observe(&ev)
		fold.Add(&ev)

		sc := Scrape(t, reg)
		for i, spec := range specs {
			key := func(name string) string { return name + `{loop="direct",slo="` + spec.Name + `"}` }
			bad, worst, alert := fold.SLO(i)
			if got := sc.Float(t, key("slo_burn_rate")); math.Float64bits(got) != math.Float64bits(worst) {
				t.Fatalf("epoch %d %s: burn rate %v, direct %v", k, spec.Name, got, worst)
			}
			if got := sc.Float(t, key("slo_alerting")); math.Float64bits(got) != math.Float64bits(alert) {
				t.Fatalf("epoch %d %s: alerting %v, direct %v", k, spec.Name, got, alert)
			}
			if got := sc.Uint(t, key("slo_bad_epochs_total")); got != bad {
				t.Fatalf("epoch %d %s: bad epochs %d, direct %d", k, spec.Name, got, bad)
			}
		}
		if got, want := sc.Float(t, `loop_tracking_error_rms{loop="direct"}`), fold.TrackingRMS(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("epoch %d: tracking RMS %v, direct %v", k, got, want)
		}
		for _, c := range []struct {
			name string
			want uint64
		}{
			{"loop_epochs_total", fold.Epochs},
			{"loop_fallback_epochs_total", fold.FallbackEpochs},
			{"loop_power_violation_epochs_total", fold.ViolationEpochs},
		} {
			if got := sc.Uint(t, c.name+`{loop="direct"}`); got != c.want {
				t.Fatalf("epoch %d: %s %d, direct %d", k, c.name, got, c.want)
			}
		}
	}
}

// TestSLOEvalMatchesReference drives sloEval and the reference
// evaluator with the same random bad-epoch streams under random specs
// — a window longer than the run, two equal windows, no windows, and
// windows of zero and negative length — and requires identical
// worstBurn bits, burning and alerting every epoch, and identical
// status (every burn rate by its bits) before the first epoch and
// every 50 epochs after.
func TestSLOEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const epochs = 3000
	specs := []Spec{
		{Name: "none", Objective: 0.9},
		{Name: "longer-than-run", Objective: 0.95,
			Windows: []Window{{Epochs: 16, MaxBurn: 3}, {Epochs: 2 * epochs, MaxBurn: 1}}},
		{Name: "equal", Objective: 0.9,
			Windows: []Window{{Epochs: 64, MaxBurn: 2}, {Epochs: 64, MaxBurn: 4}, {Epochs: 1, MaxBurn: 5}}},
		{Name: "full", Objective: 1, Windows: []Window{{Epochs: 8, MaxBurn: 1}}},
		{Name: "degenerate", Objective: 0.9,
			Windows: []Window{{Epochs: 0, MaxBurn: 0}, {Epochs: -3, MaxBurn: -1}, {Epochs: 5, MaxBurn: 1}}},
	}
	for len(specs) < 40 {
		s := Spec{Name: "random", Objective: rng.Float64()}
		for n := rng.Intn(5); n > 0; n-- {
			s.Windows = append(s.Windows, Window{Epochs: 1 + rng.Intn(700), MaxBurn: 10 * rng.Float64()})
		}
		specs = append(specs, s)
	}
	sameStatus := func(si, k int, got, want SLOStatus) {
		t.Helper()
		same := got.Name == want.Name && got.BadEpochs == want.BadEpochs &&
			got.TotalEpochs == want.TotalEpochs && got.Alerting == want.Alerting &&
			math.Float64bits(got.WorstBurn) == math.Float64bits(want.WorstBurn) &&
			len(got.Windows) == len(want.Windows)
		for i := 0; same && i < len(got.Windows); i++ {
			g, w := got.Windows[i], want.Windows[i]
			same = g.Epochs == w.Epochs && g.Burning == w.Burning &&
				math.Float64bits(g.Burn) == math.Float64bits(w.Burn) &&
				math.Float64bits(g.MaxBurn) == math.Float64bits(w.MaxBurn)
		}
		if !same {
			t.Fatalf("spec %d (%s) epoch %d: status %+v, reference %+v", si, got.Name, k, got, want)
		}
	}
	for si, spec := range specs {
		e, ref := newSLOEval(spec), newRefSLOEval(spec)
		sameStatus(si, -1, e.status(), ref.status())
		// Bad epochs arrive in bursts whose density drifts over the run.
		p := rng.Float64()
		for k := 0; k < epochs; k++ {
			if rng.Intn(100) == 0 {
				p = rng.Float64()
			}
			bad := rng.Float64() < p
			e.observe(bad)
			ref.observe(bad)
			if math.Float64bits(e.worstBurn) != math.Float64bits(ref.worstBurn) ||
				e.burning != ref.burning || e.alerting != ref.alerting {
				t.Fatalf("spec %d (%s) epoch %d: worst %v burning %v alerting %v, reference %v %v %v",
					si, spec.Name, k, e.worstBurn, e.burning, e.alerting, ref.worstBurn, ref.burning, ref.alerting)
			}
			if k%50 == 0 || k == epochs-1 {
				sameStatus(si, k, e.status(), ref.status())
			}
		}
	}
}
