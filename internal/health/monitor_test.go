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
	m := NewMonitor()
	feedWhite(t, m, 512, 0.02)
	s := m.Snapshot()
	if s.Level != LevelOK {
		t.Fatalf("level = %v (%s), want ok", s.Level, s.Detail)
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

func TestMonitorConsumptionTransitions(t *testing.T) {
	// Halfway between the thresholds warns, past fail fails. Random
	// signs keep the sequence zero-mean: consumption is of |innovation|.
	for _, tc := range []struct {
		cons  float64
		level Level
		want  string
	}{
		{(consumptionWarn + consumptionFail) / 2, LevelWarn, "guardband consumption"},
		{consumptionFail + 0.05, LevelFail, "guardband exhausted"},
	} {
		m := NewMonitor()
		mag, _ := consumptionInnovation(tc.cons, 0)
		g := lcg(3)
		for i := 0; i < 1024; i++ {
			sign := 1.0
			if g.next() < 0 {
				sign = -1
			}
			m.Observe(sign*mag, 0)
		}
		s := m.Snapshot()
		if s.Level != tc.level {
			t.Errorf("consumption %.2f: level = %v (%s), want %v", tc.cons, s.Level, s.Detail, tc.level)
		}
		if !strings.Contains(s.Detail, tc.want) {
			t.Errorf("consumption %.2f: detail %q does not contain %q", tc.cons, s.Detail, tc.want)
		}
	}
}

// toyLoop builds a small stable 2×2 plant/controller pair for the
// margin recompute: a diagonal first-order plant of input gain b under
// weak dynamic output feedback. Its small-gain margin at the design
// guardbands is ~11 at b = 1, ~1.08 at b = 6 and ~0.86 at b = 6.5
// (nominally stable throughout).
func toyLoop(t *testing.T, b float64) (*lti.StateSpace, *lti.StateSpace) {
	t.Helper()
	diag := func(v float64) *mat.Matrix { return mat.Diag(v, v) }
	plant, err := lti.NewStateSpace(diag(0.5), diag(b), diag(1), nil, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := lti.NewStateSpace(diag(0.1), diag(0.1), diag(-1), diag(0), 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	return plant, ctrl
}

func TestMonitorMarginRecomputeAndTransitions(t *testing.T) {
	for _, tc := range []struct {
		b     float64
		level Level
		want  string
	}{
		{1, LevelOK, "model health ok"},
		{6, LevelWarn, "stability margin thin"},
		{6.5, LevelFail, "small-gain certificate lost"},
	} {
		m := NewMonitor()
		m.Rebase(toyLoop(t, tc.b))
		feedWhite(t, m, recomputeEvery-1, 0.02)
		if s := m.Snapshot(); !math.IsNaN(s.StabilityMargin) || s.Level != LevelOK {
			t.Fatalf("b=%v: margin %v level %v before the first recompute, want NaN and ok", tc.b, s.StabilityMargin, s.Level)
		}
		feedWhite(t, m, 1, 0.02)
		s := m.Snapshot()
		if math.IsNaN(s.StabilityMargin) || s.StabilityMargin <= 0 {
			t.Fatalf("b=%v: margin was not recomputed: %v", tc.b, s.StabilityMargin)
		}
		if s.Level != tc.level || !strings.Contains(s.Detail, tc.want) {
			t.Errorf("b=%v: margin %.3f: level = %v (%s), want %v (%s)",
				tc.b, s.StabilityMargin, s.Level, s.Detail, tc.level, tc.want)
		}
	}
}

func TestMonitorMarginInflatesWithObservedMismatch(t *testing.T) {
	plant, ctrl := toyLoop(t, 1)
	small := NewMonitor()
	small.Rebase(plant, ctrl)
	feedWhite(t, small, recomputeEvery, 0.02)
	big := NewMonitor()
	big.Rebase(plant, ctrl)
	feedWhite(t, big, recomputeEvery, 10.0) // observed mismatch far beyond the design guardband
	ms, mb := small.Snapshot().StabilityMargin, big.Snapshot().StabilityMargin
	if !(mb < ms) {
		t.Fatalf("margin did not shrink when observed mismatch grew: small=%v big=%v", ms, mb)
	}
}

func TestMonitorNonFiniteSamplesSkipped(t *testing.T) {
	m := NewMonitor()
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
	if s.Level != LevelOK || !math.IsNaN(s.StabilityMargin) {
		t.Fatalf("nil monitor snapshot = %+v", s)
	}
}

// TestBindTelemetryPublishesGauges: a bound monitor mirrors each
// evaluation into its own registry; a second, unbound monitor in the
// same process publishes nothing there.
func TestBindTelemetryPublishesGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor()
	m.BindTelemetry(reg.Scope(telemetry.L("loop", "a")))
	other := NewMonitor()
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
	if !strings.Contains(out, `health_level{loop="a"} 0`) || !strings.Contains(out, `health_guardband_consumption{loop="a",channel="ips"}`) {
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
