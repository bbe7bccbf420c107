package supervisor

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
)

// TestHealthzFallbackIsUnhealthy: a supervised loop's fallback reaches
// its fleet's /healthz through the mode it reports on its events — no
// process state in between — and names the loop; the per-loop mode
// gauge follows.
func TestHealthzFallbackIsUnhealthy(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := obs.NewFleet(obs.Options{Registry: reg, Specs: []obs.Spec{}})
	healthy := New(newFakeInner(), Options{})
	healthy.SetLoopObs(f.Register("healthy"))
	sup := New(newFakeInner(), Options{})
	l := f.Register("faulty")
	sup.SetLoopObs(l)
	sup.BindTelemetry(l.Scope())

	for k := 0; k < 5; k++ {
		healthy.Step(goodTel(k))
		sup.Step(goodTel(k))
	}
	if ok, detail := f.Healthz(); !ok || detail != "2 loops engaged" {
		t.Fatalf("engaged: ok=%v detail=%q", ok, detail)
	}
	for k := 5; sup.Mode() == ModeEngaged && k < 500; k++ {
		healthy.Step(goodTel(k))
		bad := goodTel(k)
		bad.PowerW = 0
		sup.Step(bad)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("never fell back")
	}
	if ok, detail := f.Healthz(); ok || !strings.Contains(detail, "fallback") || !strings.Contains(detail, "loop faulty") {
		t.Fatalf("fallback: ok=%v detail=%q", ok, detail)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `supervisor_mode{loop="faulty"} 1`) {
		t.Fatalf("per-loop mode gauge not in fallback:\n%s", sb.String())
	}
}

// modelHealthInnovation is the IPS innovation magnitude (BIPS) that
// drives the monitor to the requested level: 35% of the IPS guardband
// warns, 50% fails.
func modelHealthInnovation(level health.Level) float64 {
	budget := core.DefaultIPSTarget * core.DefaultIPSGuardband
	switch level {
	case health.LevelWarn:
		return 0.35 * budget
	case health.LevelFail:
		return 0.50 * budget
	}
	return 0.02
}

// stepToLevel steps sup with innovations of the level's magnitude and
// random sign until its monitor reaches level (at most 256 epochs).
func stepToLevel(t *testing.T, sup *Supervised, inner *fakeInner, level health.Level) {
	t.Helper()
	mag := modelHealthInnovation(level)
	rng := uint64(12345)
	unit := func() float64 { // uniform in (-1, 1), deterministic
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(int64(rng>>11))/float64(1<<52) - 1
	}
	for i := 0; i < 256 && sup.monitor.Level() != level; i++ {
		s := 1.0
		if unit() < 0 {
			s = -1
		}
		inner.innov = []float64{s * mag * (1 + 0.01*unit()), 0.01 * unit()}
		sup.Step(goodTel(i))
	}
	if got := sup.monitor.Level(); got != level {
		t.Fatalf("monitor at %v, want %v", got, level)
	}
}

// TestHealthzFoldsModelHealth: the model-health monitor's verdict
// reaches /healthz through Event.Health — warn annotates a 200, fail
// degrades it — while the supervisor is still engaged (the grace period
// holds the alarm off), and fallback outranks it once the loop gives up.
func TestHealthzFoldsModelHealth(t *testing.T) {
	f := obs.NewFleet(obs.Options{Specs: []obs.Spec{}})
	inner := newFakeInner()
	mon := health.NewMonitor()
	sup := New(inner, Options{ModelHealth: mon})
	sup.SetLoopObs(f.Register("monitored"))

	stepToLevel(t, sup, inner, health.LevelWarn)
	if ok, detail := f.Healthz(); !ok || !strings.Contains(detail, "model health warn: loop monitored") {
		t.Fatalf("warn: ok=%v detail=%q", ok, detail)
	}

	stepToLevel(t, sup, inner, health.LevelFail)
	if sup.Mode() != ModeEngaged {
		t.Fatal("fell back inside the grace period")
	}
	if ok, detail := f.Healthz(); ok || !strings.Contains(detail, "model health fail: loop monitored") {
		t.Fatalf("fail: ok=%v detail=%q", ok, detail)
	}

	// Past grace the fail verdict is a sick epoch: fallback follows and
	// outranks the model-health tier.
	for k := 0; sup.Mode() == ModeEngaged && k < 2000; k++ {
		sup.Step(goodTel(k))
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("never fell back on the fail verdict")
	}
	if h := sup.Health(); h.Fallbacks != 1 || h.ModelHealthAlarms != fallbackAfter || h.InnovationAlarms != 0 {
		t.Fatalf("health %+v, want 1 fallback after %d model-health alarms", h, fallbackAfter)
	}
	// A void certificate is not re-armed by clean telemetry: the monitor
	// sees no innovations while pinned, so its fail verdict stands over
	// several hysteresis windows of healthy epochs.
	for k := 0; k < 3*reengageAfter; k++ {
		sup.Step(goodTel(k))
	}
	if sup.Mode() != ModeFallback || sup.Health().Reengagements != 0 {
		t.Fatalf("mode %v with the certificate void, want fallback", sup.Mode())
	}
	if ok, detail := f.Healthz(); ok || !strings.Contains(detail, "supervisor fallback: loop monitored") {
		t.Fatalf("fallback+fail: ok=%v detail=%q", ok, detail)
	}
}

func TestSupervisedRecordsEveryEpoch(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	rec := flightrec.New(64)
	sup.SetFlightRecorder(rec)

	const n = 10
	for k := 0; k < n; k++ {
		sup.Step(goodTel(k))
	}
	snap := rec.Snapshot()
	if len(snap) != n {
		t.Fatalf("recorded %d epochs, want %d (one record per epoch)", len(snap), n)
	}
	for k, r := range snap {
		if r.Epoch != uint64(k+1) {
			t.Errorf("record %d has epoch %d", k, r.Epoch)
		}
		if r.Flags&obs.FlagSupervised == 0 {
			t.Errorf("record %d missing FlagSupervised", k)
		}
		if r.Mode != obs.ModeEngaged {
			t.Errorf("record %d mode %d, want engaged", k, r.Mode)
		}
		if r.IPSTarget == 0 || r.IPS == 0 {
			t.Errorf("record %d payload empty: %+v", k, r)
		}
	}
}

func TestSupervisedRecordsSanitizeFlags(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	rec := flightrec.New(16)
	sup.SetFlightRecorder(rec)
	sup.Step(goodTel(0))
	bad := goodTel(1)
	bad.IPS = math.NaN()
	sup.Step(bad)
	snap := rec.Snapshot()
	if snap[0].Flags&obs.FlagSanitizedIPS != 0 {
		t.Error("clean epoch carries a sanitize flag")
	}
	if snap[1].Flags&obs.FlagSanitizedIPS == 0 {
		t.Error("sanitized epoch not flagged")
	}
}

func TestFallbackRecordsAndRequestsDump(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	rec := flightrec.New(256)
	var dumpReason string
	rec.SetOnDump(func(reason string, _ *flightrec.Recorder) { dumpReason = reason })
	sup.SetFlightRecorder(rec)

	sup.Step(goodTel(0))
	epochs := 1
	for k := 1; sup.Mode() == ModeEngaged && k < 500; k++ {
		bad := goodTel(k)
		bad.PowerW = 0
		sup.Step(bad)
		epochs++
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("never fell back")
	}
	if dumpReason != "supervisor-fallback" {
		t.Fatalf("dump reason %q, want supervisor-fallback", dumpReason)
	}
	snap := rec.Snapshot()
	if len(snap) != epochs {
		t.Fatalf("recorded %d epochs, want %d", len(snap), epochs)
	}
	last := snap[len(snap)-1]
	if last.Flags&obs.FlagFallback == 0 || last.Mode != obs.ModeFallback {
		t.Fatalf("fallback epoch not flagged: %+v", last)
	}

	// Detach: further steps must not record.
	sup.SetFlightRecorder(nil)
	bad := goodTel(1000)
	bad.PowerW = 0
	sup.Step(bad)
	if rec.Len() != len(snap) {
		t.Fatal("detached recorder still written")
	}
}

func TestSupervisedFeedsModelHealthMonitor(t *testing.T) {
	inner := newFakeInner()
	inner.innov = []float64{0.1, 0.05}
	mon := health.NewMonitor()
	sup := New(inner, Options{ModelHealth: mon})
	for k := 0; k < 32; k++ {
		sup.Step(goodTel(k))
	}
	if got := mon.Snapshot().Observations; got != 32 {
		t.Fatalf("monitor observed %d epochs, want 32", got)
	}
}
