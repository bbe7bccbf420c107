package supervisor

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
)

func TestHealthzFallbackIsUnhealthy(t *testing.T) {
	health.ResetGlobal()
	t.Cleanup(func() { markMode(nil, ModeEngaged); health.ResetGlobal() })

	markMode(nil, ModeEngaged)
	if ok, detail := Healthz(); !ok || detail != "supervisor engaged" {
		t.Fatalf("engaged: ok=%v detail=%q", ok, detail)
	}
	markMode(nil, ModeFallback)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "fallback") {
		t.Fatalf("fallback: ok=%v detail=%q", ok, detail)
	}
}

// driveMonitor publishes a snapshot at the requested level through a
// real monitor (the published snapshot is only writable by one).
func driveMonitor(t *testing.T, level health.Level) {
	t.Helper()
	m := health.NewMonitor(health.Options{Window: 64, EvalEvery: 16, Lags: 4, Publish: true})
	mag := 0.02 // tiny white innovations -> ok
	switch level {
	case health.LevelWarn:
		mag = 0.45 * 2.5 // ~90% of the IPS guardband
	case health.LevelFail:
		mag = 0.60 * 2.5 // budget exhausted
	}
	rng := uint64(12345)
	unit := func() float64 { // uniform in (-1, 1), deterministic
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(int64(rng>>11))/float64(1<<52) - 1
	}
	for i := 0; i < 256; i++ {
		s := 1.0
		if unit() < 0 {
			s = -1 // random signs keep the sequence white
		}
		m.Observe(s*mag*(1+0.01*unit()), 0.01*unit())
	}
	snap, ok := health.Current()
	if !ok || snap.Level != level {
		t.Fatalf("monitor drove level %v, want %v (%s)", snap.Level, level, snap.Detail)
	}
}

func TestHealthzFoldsModelHealth(t *testing.T) {
	health.ResetGlobal()
	t.Cleanup(func() { markMode(nil, ModeEngaged); health.ResetGlobal() })
	markMode(nil, ModeEngaged)

	driveMonitor(t, health.LevelWarn)
	if ok, detail := Healthz(); !ok || !strings.Contains(detail, "model health warn") {
		t.Fatalf("warn: ok=%v detail=%q", ok, detail)
	}

	driveMonitor(t, health.LevelFail)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "model health fail") {
		t.Fatalf("fail: ok=%v detail=%q", ok, detail)
	}

	// Supervisor fallback outranks the model-health annotation.
	markMode(nil, ModeFallback)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "fallback") {
		t.Fatalf("fallback+fail: ok=%v detail=%q", ok, detail)
	}
}

func TestHealthzAnnotations(t *testing.T) {
	health.ResetGlobal()
	t.Cleanup(func() {
		markMode(nil, ModeEngaged)
		health.ResetGlobal()
		RegisterHealthzAnnotation("test-a", nil)
		RegisterHealthzAnnotation("test-b", nil)
	})
	markMode(nil, ModeEngaged)

	// Inactive annotations leave the response untouched.
	active := false
	RegisterHealthzAnnotation("test-a", func() (string, bool) { return "drift on loop-3", active })
	if ok, detail := Healthz(); !ok || detail != "supervisor engaged" {
		t.Fatalf("inactive annotation leaked: ok=%v detail=%q", ok, detail)
	}

	// Active annotations warn without degrading.
	active = true
	if ok, detail := Healthz(); !ok || !strings.Contains(detail, "drift on loop-3") {
		t.Fatalf("active annotation missing: ok=%v detail=%q", ok, detail)
	}

	// Sources render in registration order; re-registering replaces.
	RegisterHealthzAnnotation("test-b", func() (string, bool) { return "second source", true })
	RegisterHealthzAnnotation("test-a", func() (string, bool) { return "replaced detail", true })
	_, detail := Healthz()
	if !strings.Contains(detail, "replaced detail") || !strings.Contains(detail, "second source") {
		t.Fatalf("replacement/order broken: %q", detail)
	}
	if strings.Contains(detail, "drift on loop-3") {
		t.Fatalf("stale annotation survived replacement: %q", detail)
	}

	// Fallback still outranks annotations.
	markMode(nil, ModeFallback)
	if ok, detail := Healthz(); ok || strings.Contains(detail, "second source") {
		t.Fatalf("fallback did not outrank annotations: ok=%v detail=%q", ok, detail)
	}

	// Removal restores the clean response.
	markMode(nil, ModeEngaged)
	RegisterHealthzAnnotation("test-a", nil)
	RegisterHealthzAnnotation("test-b", nil)
	if ok, detail := Healthz(); !ok || detail != "supervisor engaged" {
		t.Fatalf("after removal: ok=%v detail=%q", ok, detail)
	}
}

func TestSupervisedRecordsEveryEpoch(t *testing.T) {
	inner := newFakeInner()
	sup := New(inner, Options{})
	rec := flightrec.New(64)
	sup.SetFlightRecorder(rec)
	if sup.FlightRecorder() != rec {
		t.Fatal("FlightRecorder accessor")
	}

	const n = 10
	for k := 0; k < n; k++ {
		sup.Step(goodTel(k))
	}
	snap := rec.Snapshot()
	if len(snap) != n {
		t.Fatalf("recorded %d epochs, want %d (one record per epoch)", len(snap), n)
	}
	for k, r := range snap {
		if r.Epoch != uint64(k) {
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
	sup := New(inner, Options{MaxStaleEpochs: 10, FallbackAfter: 5, MinFallbackEpochs: 20, ReengageAfter: 10})
	rec := flightrec.New(256)
	var dumpReason string
	rec.SetOnDump(func(reason string, _ *flightrec.Recorder) { dumpReason = reason })
	sup.SetFlightRecorder(rec)

	sup.Step(goodTel(0))
	epochs := 1
	for k := 1; sup.Mode() == ModeEngaged && k < 100; k++ {
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
	mon := health.NewMonitor(health.Options{Window: 64, EvalEvery: 16, Lags: 4})
	sup := New(inner, Options{ModelHealth: mon})
	if sup.ModelHealth() != mon {
		t.Fatal("ModelHealth accessor")
	}
	for k := 0; k < 32; k++ {
		sup.Step(goodTel(k))
	}
	if got := mon.Snapshot().Observations; got != 32 {
		t.Fatalf("monitor observed %d epochs, want 32", got)
	}
}
