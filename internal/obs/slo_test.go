package obs

import (
	"math"
	"testing"
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
		t.Fatalf("sustained badness must alert (winBad=%v)", e.winBad)
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
	if e.winBad[0] != 1 {
		t.Fatalf("winBad = %d, want 1", e.winBad[0])
	}
	if got := e.burn(0, e.spec.Windows[0]); math.Abs(got-(0.25/0.5)) > 1e-12 {
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
	if got := e.worstBurn(); math.Abs(got-10) > 1e-12 {
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
		if got := tc.spec.isBad(&sample, tc.since); got != tc.want {
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
