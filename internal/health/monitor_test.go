package health

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/telemetry"
)

// feedWhite drives n small, white-ish innovations through m.
func feedWhite(t *testing.T, m *Monitor, n int, amp float64) {
	t.Helper()
	g := lcg(7)
	for i := 0; i < n; i++ {
		m.Observe(amp*g.gaussish(), amp*g.gaussish())
	}
}

func TestMonitorHealthyStaysOK(t *testing.T) {
	m := NewMonitor(Options{Window: 128, EvalEvery: 32, Lags: 4})
	feedWhite(t, m, 512, 0.02)
	s := m.Snapshot()
	if s.Level != LevelOK {
		t.Fatalf("level = %v (%s), want ok", s.Level, s.Detail)
	}
	if s.WhitenessP < 1e-3 {
		t.Errorf("whiteness p = %g for white innovations", s.WhitenessP)
	}
	if s.GuardbandConsumption > 0.2 {
		t.Errorf("consumption = %.2f for tiny innovations", s.GuardbandConsumption)
	}
	if !math.IsNaN(s.StabilityMargin) {
		t.Errorf("margin = %v without a plant model, want NaN", s.StabilityMargin)
	}
	if s.Observations != 512 {
		t.Errorf("observations = %d, want 512", s.Observations)
	}
}

func TestMonitorWhitenessTransition(t *testing.T) {
	m := NewMonitor(Options{Window: 128, EvalEvery: 32, Lags: 4})
	// A strongly periodic innovation: the Kalman model is missing
	// dynamics. Amplitude kept small so consumption cannot trip first.
	for i := 0; i < 512; i++ {
		m.Observe(0.05*math.Sin(2*math.Pi*float64(i)/16), 0.0)
	}
	s := m.Snapshot()
	if s.Level != LevelFail {
		t.Fatalf("level = %v (%s), want fail", s.Level, s.Detail)
	}
	if !strings.Contains(s.Detail, "not white") {
		t.Errorf("detail %q does not name whiteness", s.Detail)
	}
}

func TestMonitorConsumptionTransitions(t *testing.T) {
	// |normalized innovation| ≈ 0.45 of the 0.50 IPS guardband → 90%
	// consumption → warn; 0.55 → 110% → fail. Random signs keep the
	// sequence white so the whiteness test cannot trip instead.
	for _, tc := range []struct {
		mag   float64
		level Level
		want  string
	}{
		{0.45 * 2.5, LevelWarn, "guardband consumption"},
		{0.55 * 2.5, LevelFail, "guardband exhausted"},
	} {
		m := NewMonitor(Options{Window: 128, EvalEvery: 32, Lags: 4})
		g := lcg(3)
		for i := 0; i < 1024; i++ {
			sign := 1.0
			if g.next() < 0 {
				sign = -1
			}
			m.Observe(sign*tc.mag, 0)
		}
		s := m.Snapshot()
		if s.Level != tc.level {
			t.Errorf("mag %.2f: level = %v (%s), want %v", tc.mag, s.Level, s.Detail, tc.level)
		}
		if !strings.Contains(s.Detail, tc.want) {
			t.Errorf("mag %.2f: detail %q does not contain %q", tc.mag, s.Detail, tc.want)
		}
	}
}

// toyLoop builds a small stable 2×2 plant/controller pair for the
// margin recompute: a diagonal first-order plant under weak dynamic
// output feedback.
func toyLoop(t *testing.T) (*lti.StateSpace, *lti.StateSpace) {
	t.Helper()
	diag := func(v float64) *mat.Matrix { return mat.Diag(v, v) }
	plant, err := lti.NewStateSpace(diag(0.5), diag(1), diag(1), nil, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := lti.NewStateSpace(diag(0.1), diag(0.1), diag(-0.2), diag(0), 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	return plant, ctrl
}

func TestMonitorMarginRecomputeAndTransitions(t *testing.T) {
	plant, ctrl := toyLoop(t)
	// First learn the loop's actual margin at the design guardbands.
	m := NewMonitor(Options{Window: 128, EvalEvery: 32, Lags: 4,
		Plant: plant, Ctrl: ctrl, RecomputeEvery: 64})
	feedWhite(t, m, 256, 0.02)
	margin := m.Snapshot().StabilityMargin
	if math.IsNaN(margin) || margin <= 0 {
		t.Fatalf("margin was not recomputed: %v", margin)
	}

	// Thresholds placed around the measured value force each verdict.
	for _, tc := range []struct {
		warn, fail float64
		level      Level
	}{
		{margin / 2, margin / 4, LevelOK},
		{margin * 2, margin / 4, LevelWarn},
		{margin * 4, margin * 2, LevelFail},
	} {
		m := NewMonitor(Options{Window: 128, EvalEvery: 32, Lags: 4,
			Plant: plant, Ctrl: ctrl, RecomputeEvery: 64,
			MarginWarn: tc.warn, MarginFail: tc.fail})
		feedWhite(t, m, 256, 0.02)
		if s := m.Snapshot(); s.Level != tc.level {
			t.Errorf("thresholds (%.2f, %.2f): level = %v (%s), want %v",
				tc.warn, tc.fail, s.Level, s.Detail, tc.level)
		}
	}
}

func TestMonitorMarginInflatesWithObservedMismatch(t *testing.T) {
	plant, ctrl := toyLoop(t)
	opts := Options{Window: 128, EvalEvery: 32, Lags: 4,
		Plant: plant, Ctrl: ctrl, RecomputeEvery: 64,
		// Keep consumption/whiteness out of the verdict: this test is
		// about the guardband fed to the recompute.
		ConsumptionWarn: 1e6, ConsumptionFail: 2e6, WhitenessWarn: 1e-300, WhitenessFail: 1e-301}
	small := NewMonitor(opts)
	feedWhite(t, small, 256, 0.02)
	big := NewMonitor(opts)
	feedWhite(t, big, 256, 10.0) // observed mismatch far beyond the design guardband
	ms, mb := small.Snapshot().StabilityMargin, big.Snapshot().StabilityMargin
	if !(mb < ms) {
		t.Fatalf("margin did not shrink when observed mismatch grew: small=%v big=%v", ms, mb)
	}
}

func TestMonitorNonFiniteSamplesSkipped(t *testing.T) {
	m := NewMonitor(Options{Window: 64, EvalEvery: 16, Lags: 4})
	for i := 0; i < 128; i++ {
		m.Observe(math.NaN(), math.Inf(1))
	}
	s := m.Snapshot()
	if s.Observations != 0 || s.Level != LevelOK {
		t.Fatalf("non-finite samples were consumed: %+v", s)
	}
}

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	m.Observe(1, 1)
	s := m.Snapshot()
	if s.WhitenessP != 1 || !math.IsNaN(s.StabilityMargin) {
		t.Fatalf("nil monitor snapshot = %+v", s)
	}
}

// TestBindTelemetryPublishesGauges: a bound monitor mirrors each
// evaluation into its own registry; a second, unbound monitor in the
// same process publishes nothing there.
func TestBindTelemetryPublishesGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(Options{Window: 64, EvalEvery: 16, Lags: 4})
	m.BindTelemetry(reg.Scope(telemetry.L("loop", "a")))
	other := NewMonitor(Options{Window: 64, EvalEvery: 16, Lags: 4})
	feedWhite(t, m, 64, 0.02)
	feedWhite(t, other, 64, 5)
	if other.Level() != LevelFail {
		t.Fatalf("unbound monitor at %v, want fail", other.Level())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `health_level{loop="a"} 0`) || !strings.Contains(out, `health_whiteness_pvalue{loop="a",channel="ips"}`) {
		t.Fatalf("bound monitor's gauges missing:\n%s", out)
	}
	if strings.Count(out, "health_level{") != 1 {
		t.Fatalf("unbound monitor reached the registry:\n%s", out)
	}
	// Unbinding stops publication; a nil monitor ignores the call.
	m.BindTelemetry(nil)
	feedWhite(t, m, 64, 5)
	if m.Level() != LevelFail {
		t.Fatalf("monitor at %v, want fail", m.Level())
	}
	sb.Reset()
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `health_level{loop="a"} 0`) {
		t.Fatalf("unbound monitor still publishing:\n%s", sb.String())
	}
	var nilMon *Monitor
	nilMon.BindTelemetry(reg)
}
