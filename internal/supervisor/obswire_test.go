package supervisor

import (
	"math"
	"strings"
	"testing"

	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
)

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
	rep := f.Report("")
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
	if got := f.Report("").Rows[0].Epochs; got != n {
		t.Fatalf("detached supervisor still observed: %d epochs", got)
	}
}

func TestSupervisedObsFallbackFlag(t *testing.T) {
	f := obs.NewFleet(obs.Options{})
	sup := New(newFakeInner(), Options{})
	sup.SetLoopObs(f.Register("loop0"))
	sup.Step(goodTel(0))
	for k := 1; sup.Mode() == ModeEngaged && k < 500; k++ {
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
	rep := f.Report("")
	if rep.Rows[0].FallbackEpochs != 11 { // the epoch that fell back, then 10 pinned
		t.Fatalf("fallback epochs not observed: %+v", rep.Rows[0])
	}
	if rep.Rows[0].Mode != "fallback" {
		t.Fatalf("mode %q, want fallback", rep.Rows[0].Mode)
	}
}

// TestBindTelemetryScopesInstance: each supervisor drives only the
// registry scope it was bound to, and the bind reaches its model-health
// monitor and adapter too. There is no process-wide binding to fall
// back on.
func TestBindTelemetryScopesInstance(t *testing.T) {
	reg := telemetry.NewRegistry()
	supA := New(newFakeInner(), Options{})
	supA.BindTelemetry(reg.Scope(telemetry.L("loop", "a")))
	supB := New(newFakeInner(), Options{})
	supB.BindTelemetry(reg.Scope(telemetry.L("loop", "b")))
	mon := health.NewMonitor()
	supC := New(newQuietInner(3), Options{ModelHealth: mon, Adapter: newTestAdapter(t, mon, 1)})
	supC.BindTelemetry(reg.Scope(telemetry.L("loop", "c")))
	unbound := New(newFakeInner(), Options{})
	for k := 0; k < 5; k++ {
		supA.Step(goodTel(k))
		unbound.Step(goodTel(k))
	}
	supB.Step(goodTel(0))
	for k := 0; k < 32; k++ {
		supC.Step(goodTel(k))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`supervisor_epochs_total{loop="a"} 5`,
		`supervisor_epochs_total{loop="b"} 1`,
		`supervisor_epochs_total{loop="c"} 32`,
		`health_level{loop="c"} 0`,
		`health_guardband_consumption{loop="c",channel="ips"}`,
		`adapt_state{loop="c"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("per-instance series %s missing:\n%s", want, out)
		}
	}
	if strings.Contains(out, `supervisor_epochs_total 5`) || strings.Contains(out, `supervisor_epochs_total{loop=""}`) {
		t.Fatalf("an unbound supervisor reached the registry:\n%s", out)
	}
	// Unbinding stops the instance's series.
	supA.BindTelemetry(nil)
	supA.Step(goodTel(6))
	sb.Reset()
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `supervisor_epochs_total{loop="a"} 5`) {
		t.Fatal("unbound instance still incremented its scoped series")
	}
}
