package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// healthzSpecs is a one-SLO set with short windows, so a few dozen
// epochs move a loop between ok, burning (warn) and alerting (fail).
func healthzSpecs() []Spec {
	return []Spec{{
		Name: "tracking", Signal: SignalTrackingError, Threshold: 0.25, Objective: 0.90,
		Windows: []Window{{Epochs: 8, MaxBurn: 3}, {Epochs: 32, MaxBurn: 1.5}},
	}}
}

// noSLOs is a fleet that scores no SLO, for tests of the mode and
// model-health tiers alone (with the default specs a single fallback
// epoch also trips the availability alert).
func noSLOs() Options { return Options{Specs: []Spec{}} }

// onTarget and offTarget are engaged epochs inside and outside the
// tracking band; mode and health default to engaged and ok.
func onTarget() *Event {
	return &Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10, Guardband: 0.2}
}

func offTarget() *Event {
	ev := onTarget()
	ev.IPS = 10
	return ev
}

// driveSLO moves l's tracking SLO to the requested level: ok (all
// good), warn (the short window burns, the long one does not) or fail
// (every window burns).
func driveSLO(l *Loop, level Level) {
	switch level {
	case LevelOK:
		for i := 0; i < 64; i++ {
			l.Observe(onTarget())
		}
	case LevelWarn:
		for i := 0; i < 32; i++ {
			l.Observe(onTarget())
		}
		for i := 0; i < 4; i++ {
			l.Observe(offTarget())
		}
	case LevelFail:
		for i := 0; i < 32; i++ {
			l.Observe(offTarget())
		}
	}
}

// withMode observes one on-target epoch carrying the given supervisor
// mode and model-health level. Its tracking is good, so it only nudges
// the SLO windows toward ok.
func withMode(l *Loop, mode, health uint8, guardband float64) {
	ev := onTarget()
	ev.Mode, ev.Health, ev.Guardband = mode, health, guardband
	l.Observe(ev)
}

func wantHealthz(t *testing.T, f *Fleet, wantOK bool, contains ...string) string {
	t.Helper()
	return wantHealthzWith(t, f, nil, wantOK, contains...)
}

func wantHealthzWith(t *testing.T, f *Fleet, warns []func() (string, bool), wantOK bool, contains ...string) string {
	t.Helper()
	ok, detail := f.Healthz(warns...)
	if ok != wantOK {
		t.Fatalf("Healthz ok=%v, want %v (%q)", ok, wantOK, detail)
	}
	for _, c := range contains {
		if !strings.Contains(detail, c) {
			t.Fatalf("Healthz detail %q lacks %q", detail, c)
		}
	}
	return detail
}

func TestHealthzFallbackFromEventMode(t *testing.T) {
	f := NewFleet(noSLOs())
	if ok, detail := f.Healthz(); !ok || detail != "0 loops engaged" {
		t.Fatalf("empty fleet: ok=%v detail=%q", ok, detail)
	}
	a, b := f.Register("a"), f.Register("b")
	withMode(a, ModeEngaged, 0, 0.2)
	withMode(b, ModeEngaged, 0, 0.2)
	if ok, detail := f.Healthz(); !ok || detail != "2 loops engaged" {
		t.Fatalf("engaged: ok=%v detail=%q", ok, detail)
	}
	withMode(b, ModeFallback, 0, 0.2)
	wantHealthz(t, f, false, "supervisor fallback", "loop b", "1/2 loops in fallback")
	// The loop's last epoch is its state: re-engaging clears the 503.
	withMode(b, ModeEngaged, 0, 0.2)
	if ok, detail := f.Healthz(); !ok || detail != "2 loops engaged" {
		t.Fatalf("re-engaged: ok=%v detail=%q", ok, detail)
	}
}

func TestHealthzFoldsEventHealth(t *testing.T) {
	f := NewFleet(noSLOs())
	l := f.Register("m")

	withMode(l, ModeEngaged, healthWarn, 0.9)
	wantHealthz(t, f, true, "model health warn", "loop m", "guardband consumption 90%")

	withMode(l, ModeEngaged, healthFail, 1.3)
	wantHealthz(t, f, false, "model health fail", "loop m", "guardband consumption 130%")

	// Supervisor fallback outranks the model-health verdict.
	withMode(l, ModeFallback, healthFail, 1.3)
	d := wantHealthz(t, f, false, "supervisor fallback", "loop m")
	if strings.Contains(d, "model health") {
		t.Fatalf("fallback detail %q carries the outranked model-health tier", d)
	}

	// A loop with no monitor reports NaN guardband: no consumption note.
	nan := f.Register("n")
	withMode(l, ModeEngaged, 0, 0.2)
	ev := onTarget()
	ev.Health = healthWarn
	ev.Guardband = math.NaN()
	nan.Observe(ev)
	d = wantHealthz(t, f, true, "model health warn", "loop n")
	if strings.Contains(d, "guardband") {
		t.Fatalf("NaN guardband rendered: %q", d)
	}
}

func TestHealthzWarnSources(t *testing.T) {
	f := NewFleet(noSLOs())
	l := f.Register("x")
	withMode(l, ModeEngaged, 0, 0.2)

	// Inactive sources leave the response untouched.
	active := false
	drift := func() (string, bool) { return "drift on loop-3", active }
	if ok, detail := f.Healthz(drift); !ok || detail != "1 loops engaged" {
		t.Fatalf("inactive source leaked: ok=%v detail=%q", ok, detail)
	}

	// Active sources warn without degrading, in argument order; an
	// active source with an empty detail adds nothing.
	active = true
	second := func() (string, bool) { return "second source", true }
	empty := func() (string, bool) { return "", true }
	d := wantHealthzWith(t, f, []func() (string, bool){drift, empty, second}, true, "drift on loop-3", "second source")
	if d != "1 loops engaged; drift on loop-3; second source" {
		t.Fatalf("sources out of order or padded: %q", d)
	}

	// Sources come after the fleet's own warns.
	withMode(l, ModeEngaged, healthWarn, 0.9)
	d = wantHealthzWith(t, f, []func() (string, bool){drift}, true, "model health warn")
	if strings.Index(d, "model health warn") > strings.Index(d, "drift on loop-3") {
		t.Fatalf("caller source listed before the fleet's warn: %q", d)
	}

	// Fallback outranks every warn source.
	withMode(l, ModeFallback, 0, 0.2)
	d = wantHealthzWith(t, f, []func() (string, bool){drift, second}, false, "supervisor fallback")
	if strings.Contains(d, "second source") {
		t.Fatalf("fallback did not outrank warn sources: %q", d)
	}
}

// TestHealthzPrecedence covers the composition matrix of model health
// and the control-SLO engine: fail from either degrades the endpoint,
// model-health fail wins the detail, warns from both annotate the
// healthy response, and supervisor fallback outranks everything.
func TestHealthzPrecedence(t *testing.T) {
	f := NewFleet(Options{Specs: healthzSpecs()})
	slo := f.Register("slo")
	mon := f.Register("mon")
	withMode(mon, ModeEngaged, 0, 0.2)

	driveSLO(slo, LevelOK)
	if ok, detail := f.Healthz(); !ok || detail != "2 loops engaged" {
		t.Fatalf("slo-ok: ok=%v detail=%q", ok, detail)
	}

	driveSLO(slo, LevelWarn)
	wantHealthz(t, f, true, "control SLO warn", "loop slo", "tracking")

	driveSLO(slo, LevelFail)
	wantHealthz(t, f, false, "control SLO fail", "loop slo alerting on tracking")

	// Model-health warn + SLO warn: healthy, both annotations present.
	driveSLO(slo, LevelWarn)
	withMode(mon, ModeEngaged, healthWarn, 0.9)
	wantHealthz(t, f, true, "model health warn", "loop mon", "control SLO warn", "loop slo")

	// Model-health warn + SLO fail: the SLO engine degrades the endpoint
	// even though the monitor only warns.
	driveSLO(slo, LevelFail)
	wantHealthz(t, f, false, "control SLO fail")

	// Model-health fail + SLO warn: model-health fail wins the detail,
	// and keeps winning once the SLO fails too.
	driveSLO(slo, LevelWarn)
	withMode(mon, ModeEngaged, healthFail, 1.3)
	wantHealthz(t, f, false, "model health fail", "loop mon")
	driveSLO(slo, LevelFail)
	wantHealthz(t, f, false, "model health fail", "loop mon")

	// Fallback outranks both engines.
	withMode(mon, ModeFallback, healthFail, 1.3)
	wantHealthz(t, f, false, "supervisor fallback", "loop mon")
}

// TestHealthzReadsAtScrapeTime: nothing is pushed anywhere. The SLO
// verdict and Healthz read the loops' live state when asked, so the
// first scrape after the loop degrades already reports it.
func TestHealthzReadsAtScrapeTime(t *testing.T) {
	f := NewFleet(Options{})
	if rep := f.Report(""); rep.Level != "ok" || rep.Loops != 0 {
		t.Fatalf("empty fleet verdict = %s over %d loops", rep.Level, rep.Loops)
	}
	l := f.Register("a")
	for i := 0; i < 3000; i++ {
		l.Observe(offTarget())
	}
	if rep := f.Report(""); rep.Level != "fail" || rep.AlertingLoops != 1 {
		t.Fatalf("faulted verdict = %s with %d alerting, want fail with 1", rep.Level, rep.AlertingLoops)
	}
	wantHealthz(t, f, false, "control SLO fail", "loop a alerting on tracking", "1/1 loops alerting")
}

func TestHealthzNamesFirstOffendingLoop(t *testing.T) {
	f := NewFleet(noSLOs())
	loops := []*Loop{f.Register("a"), f.Register("b"), f.Register("c")}
	for _, l := range loops {
		withMode(l, ModeEngaged, 0, 0.2)
	}
	// Registration order, not observation order, picks the loop named.
	withMode(loops[2], ModeFallback, 0, 0.2)
	withMode(loops[1], ModeFallback, 0, 0.2)
	wantHealthz(t, f, false, "loop b pinned", "2/3 loops in fallback")
	withMode(loops[1], ModeEngaged, 0, 0.2)
	wantHealthz(t, f, false, "loop c pinned", "1/3 loops in fallback")

	withMode(loops[2], ModeEngaged, healthFail, 1.1)
	withMode(loops[0], ModeEngaged, healthFail, 1.2)
	wantHealthz(t, f, false, "model health fail: loop a", "2/3 loops failing")
}

// TestHealthzFleetsIndependent: two fleets in one process answer from
// their own loops only, while both are observed and scraped
// concurrently (run under -race).
func TestHealthzFleetsIndependent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     uint8
		wantOK   bool
		contains string
	}{
		{"healthy", ModeEngaged, true, "4 loops engaged"},
		{"faulted", ModeFallback, false, "loop faulted/3 pinned"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			bus := NewBus(64)
			f := NewFleet(Options{Bus: bus})
			defer bus.Close()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				l := f.Register(fmt.Sprintf("%s/%d", tc.name, i))
				mode := ModeEngaged
				if i == 3 {
					mode = tc.mode
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 500; k++ {
						withMode(l, mode, 0, 0.2)
					}
				}()
			}
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for k := 0; k < 200; k++ {
					f.Healthz()
					f.Report("")
				}
			}()
			wg.Wait()
			<-scraped
			wantHealthz(t, f, tc.wantOK, tc.contains)
		})
	}
}
