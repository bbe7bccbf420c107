package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
	if _, burning, alerting := e.verdict(nil); burning || alerting {
		t.Fatal("clean history must not burn")
	}
	// Four bad epochs: short-window fraction 4/8=0.5 -> burn 5 (burning),
	// long-window fraction 4/32=0.125 -> burn 1.25 (not burning) => no alert.
	for i := 0; i < 4; i++ {
		e.observe(true)
	}
	_, burning, alerting := e.verdict(nil)
	if !burning {
		t.Fatal("short window should burn after 4 consecutive bad epochs")
	}
	if alerting {
		t.Fatal("alert requires every window to burn")
	}
	// Keep it bad: long window catches up and the alert fires.
	for i := 0; i < 8; i++ {
		e.observe(true)
	}
	if st, _ := e.status(); !st.Alerting {
		t.Fatalf("sustained badness must alert (windows %+v)", st.Windows)
	}
	// Recovery: a clean stretch clears the short window first, dropping
	// the alert.
	for i := 0; i < 8; i++ {
		e.observe(false)
	}
	if _, _, alerting := e.verdict(nil); alerting {
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
	// Last 4 epochs: false false false true -> 1 bad, burn (1/4)/0.5.
	if got := e.burn(e.spec.Windows[0]); math.Abs(got-(0.25/0.5)) > 1e-12 {
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
	if got, _, _ := e.verdict(nil); math.Abs(got-10) > 1e-12 {
		t.Fatalf("partial-window burn = %g, want 10", got)
	}
}

// TestNewFleetRejectsShortWindow: a window spans at least one epoch, and
// NewFleet panics naming the spec and the window that does not.
func TestNewFleetRejectsShortWindow(t *testing.T) {
	for _, epochs := range []int{0, -3} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf(`SLO "degenerate" window 1 spans %d epochs`, epochs); !strings.Contains(msg, want) {
					t.Fatalf("NewFleet with a %d-epoch window panicked with %q, want it to name %s", epochs, msg, want)
				}
			}()
			NewFleet(Options{Specs: []Spec{
				{Name: "ok", Windows: []Window{{Epochs: 1, MaxBurn: 1}}},
				{Name: "degenerate", Objective: 0.9, Windows: []Window{{Epochs: 5, MaxBurn: 1}, {Epochs: epochs, MaxBurn: 1}}},
			}})
		}()
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
// per epoch shared by every spec and the RMS family — and the worst
// burn and alert counted from the rings when scraped, against a fold of
// the same events (EventFold) that evaluates TrackErr per spec and, with
// the reference evaluator, recomputes the worst burn over the windows.
// Every per-loop series of a scrape must agree bit for bit, every
// epoch.
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

// diffReference compares e's read-time verdict and status with ref's,
// every burn rate by its bits, and describes the first difference (""
// when there is none).
func diffReference(e *sloEval, ref *refSLOEval) string {
	worst, burning, alerting := e.verdict(nil)
	if math.Float64bits(worst) != math.Float64bits(ref.worstBurn) || burning != ref.burning || alerting != ref.alerting {
		return fmt.Sprintf("worst %v burning %v alerting %v, reference %v %v %v",
			worst, burning, alerting, ref.worstBurn, ref.burning, ref.alerting)
	}
	got, _ := e.status()
	want := ref.status()
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
		return fmt.Sprintf("status %+v, reference %+v", got, want)
	}
	return ""
}

// TestSLOEvalMatchesReference drives sloEval and the reference
// evaluator with the same random bad-epoch streams under specs — no
// windows, a window far longer than the rest, two equal windows, a
// one-epoch window, a zero threshold, windows either side of one and
// two ring words, and random ones — and requires the same read-time
// verdict and status, every burn rate by its bits, before the first
// epoch and after every one. Each run lasts long enough for its ring to
// wrap at least five times.
func TestSLOEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specs := []Spec{
		{Name: "none", Objective: 0.9},
		{Name: "long", Objective: 0.95,
			Windows: []Window{{Epochs: 16, MaxBurn: 3}, {Epochs: 6000, MaxBurn: 1}}},
		{Name: "equal", Objective: 0.9,
			Windows: []Window{{Epochs: 64, MaxBurn: 2}, {Epochs: 64, MaxBurn: 4}, {Epochs: 1, MaxBurn: 5}}},
		{Name: "full", Objective: 1, Windows: []Window{{Epochs: 8, MaxBurn: 1}}},
		{Name: "zero-threshold", Objective: 0.9, Windows: []Window{{Epochs: 5, MaxBurn: 0}}},
		{Name: "word-edges", Objective: 0.8, Windows: []Window{
			{Epochs: 63, MaxBurn: 1}, {Epochs: 64, MaxBurn: 2}, {Epochs: 65, MaxBurn: 3},
			{Epochs: 127, MaxBurn: 1.5}, {Epochs: 128, MaxBurn: 2.5}, {Epochs: 129, MaxBurn: 1}}},
	}
	// A ring of each edge length: the longest window sets it.
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		specs = append(specs, Spec{Name: fmt.Sprintf("ring-%d", n), Objective: 0.9,
			Windows: []Window{{Epochs: n - 1, MaxBurn: 2}, {Epochs: n, MaxBurn: 1.5}, {Epochs: 2, MaxBurn: 4}}})
	}
	for len(specs) < 50 {
		s := Spec{Name: "random", Objective: rng.Float64()}
		for n := rng.Intn(5); n > 0; n-- {
			s.Windows = append(s.Windows, Window{Epochs: 1 + rng.Intn(700), MaxBurn: 10 * rng.Float64()})
		}
		specs = append(specs, s)
	}
	for si, spec := range specs {
		e, ref := newSLOEval(spec), newRefSLOEval(spec)
		if d := diffReference(e, ref); d != "" {
			t.Fatalf("spec %d (%s) before the first epoch: %s", si, spec.Name, d)
		}
		// Bad epochs arrive in bursts whose density drifts over the run.
		p := rng.Float64()
		for k := 0; k < max(3000, 5*e.n+e.n/2); k++ {
			if rng.Intn(100) == 0 {
				p = rng.Float64()
			}
			bad := rng.Float64() < p
			e.observe(bad)
			ref.observe(bad)
			if d := diffReference(e, ref); d != "" {
				t.Fatalf("spec %d (%s) epoch %d: %s", si, spec.Name, k, d)
			}
		}
	}
}

// FuzzSLOEvalVsReference holds sloEval to the reference evaluator on a
// spec and a bad-epoch stream read from the fuzz input. Each 3-byte
// record of spec is one window (up to 8), 1 to 512 epochs long (two
// bytes) with a burn threshold in [0, 16) (one byte); the stream's bits
// are the epochs' badness, repeated until the ring has wrapped three
// times. The verdict and the status must match by bits after every
// epoch.
func FuzzSLOEvalVsReference(f *testing.F) {
	f.Add([]byte{62, 0, 16, 63, 0, 32, 64, 0, 8}, []byte{0xff, 0x00, 0x0f, 0xf0, 0xaa})
	f.Add([]byte{126, 0, 20, 127, 0, 20, 128, 0, 20, 0, 0, 50}, []byte{0x01, 0x80, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00})
	f.Add([]byte{255, 1, 4}, []byte{0x55})
	f.Fuzz(func(t *testing.T, spec, stream []byte) {
		s := Spec{Name: "fuzz", Objective: 0.9}
		for ; len(spec) >= 3 && len(s.Windows) < 8; spec = spec[3:] {
			s.Windows = append(s.Windows, Window{
				Epochs:  1 + int(spec[0]) + int(spec[1]&1)<<8,
				MaxBurn: float64(spec[2]) / 16,
			})
		}
		if len(stream) == 0 {
			stream = []byte{0}
		}
		stream = stream[:min(len(stream), 1024)]
		e, ref := newSLOEval(s), newRefSLOEval(s)
		for k := 0; k < max(8*len(stream), 3*e.n+1); k++ {
			i := k % (8 * len(stream))
			bad := stream[i>>3]>>(i&7)&1 == 1
			e.observe(bad)
			ref.observe(bad)
			if d := diffReference(e, ref); d != "" {
				t.Fatalf("windows %+v epoch %d: %s", s.Windows, k, d)
			}
		}
	})
}
