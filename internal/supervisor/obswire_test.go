package supervisor

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
)

// driveSLOVerdict publishes a fleet verdict at the requested level by
// driving a real fleet (the published verdict is only writable by one).
func driveSLOVerdict(t *testing.T, level obs.Level) {
	t.Helper()
	f := obs.NewFleet(obs.Options{PublishVerdict: true, Specs: []obs.Spec{{
		Name: "tracking", Signal: obs.SignalTrackingError, Threshold: 0.25, Objective: 0.90,
		Windows: []obs.Window{{Epochs: 8, MaxBurn: 3}, {Epochs: 32, MaxBurn: 1.5}},
	}}})
	l := f.Register("x")
	good := &obs.Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10}
	bad := &obs.Event{IPSTarget: 100, PowerTarget: 10, IPS: 10, PowerW: 10}
	switch level {
	case obs.LevelOK:
		for i := 0; i < 64; i++ {
			l.Observe(good)
		}
	case obs.LevelWarn:
		// Short window burns (4/8 bad), long window does not (4/32).
		for i := 0; i < 32; i++ {
			l.Observe(good)
		}
		for i := 0; i < 4; i++ {
			l.Observe(bad)
		}
	case obs.LevelFail:
		for i := 0; i < 32; i++ {
			l.Observe(bad)
		}
	}
	v, ok := obs.CurrentVerdict()
	if !ok || v.Level != level {
		t.Fatalf("fleet drove level %v, want %v (%s)", v.Level, level, v.Detail)
	}
}

// TestHealthzSLOPrecedence covers the composition matrix of the
// model-health monitor and the control-SLO engine: fail from either
// degrades the endpoint, model-health fail wins the detail line, warns
// from both annotate the healthy response, and supervisor fallback
// outranks everything.
func TestHealthzSLOPrecedence(t *testing.T) {
	reset := func() {
		markMode(nil, ModeEngaged)
		health.ResetGlobal()
		obs.ResetGlobal()
	}
	reset()
	t.Cleanup(reset)

	// SLO ok: no annotation.
	driveSLOVerdict(t, obs.LevelOK)
	if ok, detail := Healthz(); !ok || detail != "supervisor engaged" {
		t.Fatalf("slo-ok: ok=%v detail=%q", ok, detail)
	}

	// SLO warn alone: healthy, annotated.
	driveSLOVerdict(t, obs.LevelWarn)
	if ok, detail := Healthz(); !ok || !strings.Contains(detail, "control SLO warn") {
		t.Fatalf("slo-warn: ok=%v detail=%q", ok, detail)
	}

	// SLO fail alone: 503.
	driveSLOVerdict(t, obs.LevelFail)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "control SLO fail") {
		t.Fatalf("slo-fail: ok=%v detail=%q", ok, detail)
	}

	// Model-health warn + SLO warn: healthy, both annotations present.
	driveSLOVerdict(t, obs.LevelWarn)
	driveMonitor(t, health.LevelWarn)
	if ok, detail := Healthz(); !ok ||
		!strings.Contains(detail, "model health warn") || !strings.Contains(detail, "control SLO warn") {
		t.Fatalf("warn+warn: ok=%v detail=%q", ok, detail)
	}

	// Model-health warn + SLO fail: the SLO engine degrades the endpoint
	// even though the monitor only warns.
	driveSLOVerdict(t, obs.LevelFail)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "control SLO fail") {
		t.Fatalf("warn+fail: ok=%v detail=%q", ok, detail)
	}

	// Model-health fail + SLO warn: model-health fail wins the detail.
	driveSLOVerdict(t, obs.LevelWarn)
	driveMonitor(t, health.LevelFail)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "model health fail") {
		t.Fatalf("fail+warn: ok=%v detail=%q", ok, detail)
	}

	// Fallback outranks both engines.
	markMode(nil, ModeFallback)
	if ok, detail := Healthz(); ok || !strings.Contains(detail, "fallback") {
		t.Fatalf("fallback: ok=%v detail=%q", ok, detail)
	}
}

func TestSupervisedPublishesObsSamples(t *testing.T) {
	f := obs.NewFleet(obs.Options{})
	inner := newFakeInner()
	sup := New(inner, Options{})
	l := f.Register("loop0")
	sup.SetLoopObs(l)
	if sup.LoopObs() != l {
		t.Fatal("LoopObs accessor")
	}

	const n = 50
	for k := 0; k < n; k++ {
		sup.Step(goodTel(k))
	}
	rep := f.Report()
	if len(rep.Rows) != 1 || rep.Rows[0].Epochs != n {
		t.Fatalf("fleet saw %+v, want %d epochs on one loop", rep.Rows, n)
	}
	if rep.Rows[0].Mode != "engaged" {
		t.Fatalf("mode %q", rep.Rows[0].Mode)
	}

	// A sanitized epoch carries the flag through to the event stream.
	bus := obs.NewBus(256)
	defer bus.Close()
	f2 := obs.NewFleet(obs.Options{Bus: bus})
	events, cancel := bus.Subscribe(16)
	defer cancel()
	sup2 := New(newFakeInner(), Options{})
	sup2.SetLoopObs(f2.Register("loop1"))
	bad := goodTel(0)
	bad.IPS = math.NaN()
	sup2.Step(bad)
	ev := <-events
	if ev.Flags&obs.FlagSanitizedIPS == 0 {
		t.Fatalf("sanitized epoch not flagged: %+v", ev)
	}
	if ev.IPSTarget == 0 || ev.ReqFreq == 0 && ev.ReqCache == 0 && ev.ReqROB == 0 {
		t.Fatalf("event payload empty: %+v", ev)
	}

	// Detached: no more samples.
	sup.SetLoopObs(nil)
	sup.Step(goodTel(n))
	if got := f.Report().Rows[0].Epochs; got != n {
		t.Fatalf("detached supervisor still observed: %d epochs", got)
	}
}

func TestSupervisedObsFallbackFlag(t *testing.T) {
	f := obs.NewFleet(obs.Options{})
	sup := New(newFakeInner(), Options{MaxStaleEpochs: 10, FallbackAfter: 5})
	sup.SetLoopObs(f.Register("loop0"))
	sup.Step(goodTel(0))
	for k := 1; sup.Mode() == ModeEngaged && k < 100; k++ {
		bad := goodTel(k)
		bad.PowerW = 0
		sup.Step(bad)
	}
	if sup.Mode() != ModeFallback {
		t.Fatal("never fell back")
	}
	for k := 0; k < 10; k++ {
		bad := goodTel(100 + k)
		bad.PowerW = 0
		sup.Step(bad)
	}
	rep := f.Report()
	if rep.Rows[0].FallbackEpochs == 0 {
		t.Fatalf("fallback epochs not observed: %+v", rep.Rows[0])
	}
	if rep.Rows[0].Mode != "fallback" {
		t.Fatalf("mode %q, want fallback", rep.Rows[0].Mode)
	}
}

func TestBindTelemetryScopesInstance(t *testing.T) {
	SetTelemetry(nil)
	reg := telemetry.NewRegistry()
	supA := New(newFakeInner(), Options{})
	supA.BindTelemetry(reg.Scope(telemetry.L("loop", "a")))
	supB := New(newFakeInner(), Options{})
	supB.BindTelemetry(reg.Scope(telemetry.L("loop", "b")))
	for k := 0; k < 5; k++ {
		supA.Step(goodTel(k))
	}
	supB.Step(goodTel(0))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `supervisor_epochs_total{loop="a"} 5`) ||
		!strings.Contains(out, `supervisor_epochs_total{loop="b"} 1`) {
		t.Fatalf("per-instance series missing:\n%s", out)
	}
	// Unbinding reverts to the (disabled) global binding.
	supA.BindTelemetry(nil)
	supA.Step(goodTel(6))
	sb.Reset()
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `supervisor_epochs_total{loop="a"} 5`) {
		t.Fatal("unbound instance still incremented its scoped series")
	}
}
