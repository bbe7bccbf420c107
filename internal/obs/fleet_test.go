package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"mimoctl/internal/telemetry"
)

func goodSample() *Event {
	return &Event{IPSTarget: 100, PowerTarget: 10, IPS: 98, PowerW: 9.5}
}

func badSample() *Event {
	return &Event{IPSTarget: 100, PowerTarget: 10, IPS: 20, PowerW: 14, Mode: ModeFallback}
}

func TestFleetVerdictTransitions(t *testing.T) {
	f := NewFleet(Options{})
	a := f.Register("a")
	b := f.Register("b")
	for i := 0; i < 3000; i++ {
		a.Observe(goodSample())
		b.Observe(goodSample())
	}
	if rep := f.Report(""); rep.Level != "ok" {
		t.Fatalf("healthy fleet verdict = %s (%s)", rep.Level, rep.Detail)
	}
	// A 30-epoch burst burns availability's 256-epoch window (burn 11.7
	// of 10) but not its 2 048-epoch one: a warning, no alert.
	for i := 0; i < 30; i++ {
		b.Observe(badSample())
	}
	if rep := f.Report(""); rep.Level != "warn" || rep.BurningLoops != 1 || rep.AlertingLoops != 0 ||
		rep.Detail != "1/2 loops burning error budget" {
		t.Fatalf("burst verdict = %s, %d burning, %d alerting (%s), want warn with 1 burning", rep.Level, rep.BurningLoops, rep.AlertingLoops, rep.Detail)
	}
	// Drive loop b bad long enough for every window to burn.
	for i := 0; i < 3000; i++ {
		b.Observe(badSample())
	}
	if rep := f.Report(""); rep.Level != "fail" || rep.AlertingLoops != 1 {
		t.Fatalf("faulted fleet verdict = %s with %d alerting (%s), want fail with 1", rep.Level, rep.AlertingLoops, rep.Detail)
	}
	// Recovery clears the alert.
	for i := 0; i < 5000; i++ {
		b.Observe(goodSample())
	}
	if rep := f.Report(""); rep.Level != "ok" {
		t.Fatalf("recovered fleet verdict = %s (%s)", rep.Level, rep.Detail)
	}
}

func TestFleetReportSortedByBurn(t *testing.T) {
	f := NewFleet(Options{})
	good := f.Register("good")
	bad := f.Register("bad")
	for i := 0; i < 2500; i++ {
		good.Observe(goodSample())
		bad.Observe(badSample())
	}
	rep := f.Report("")
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows", len(rep.Rows))
	}
	if rep.Rows[0].Loop != "bad" || !rep.Rows[0].Alerting {
		t.Fatalf("hottest row = %+v, want alerting loop 'bad'", rep.Rows[0])
	}
	if rep.Rows[0].WorstBurn <= rep.Rows[1].WorstBurn {
		t.Fatalf("rows not sorted by burn: %g <= %g",
			rep.Rows[0].WorstBurn, rep.Rows[1].WorstBurn)
	}
	if rep.Rows[0].Mode != "fallback" || rep.Rows[1].Mode != "engaged" {
		t.Fatalf("modes = %s/%s", rep.Rows[0].Mode, rep.Rows[1].Mode)
	}
	if rep.Rows[0].FallbackEpochs != 2500 {
		t.Fatalf("fallback epochs = %d", rep.Rows[0].FallbackEpochs)
	}
	if rep.Rows[0].ViolationEpochs == 0 {
		t.Fatal("power violations not counted")
	}

	// The mode column is the loop's last observed Event.Mode, so it holds
	// with specs that do not score fallback at all.
	custom := NewFleet(Options{Specs: []Spec{{
		Name: "tracking", Signal: SignalTrackingError, Threshold: 0.25, Objective: 0.9,
		Windows: []Window{{Epochs: 8, MaxBurn: 3}},
	}}})
	l := custom.Register("pinned")
	for i := 0; i < 10; i++ {
		l.Observe(&Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10, Mode: ModeFallback})
	}
	if row := custom.Report("").Rows[0]; row.Mode != "fallback" || row.FallbackEpochs != 10 {
		t.Fatalf("custom-specs row = mode %q, %d fallback epochs; want fallback, 10", row.Mode, row.FallbackEpochs)
	}
	l.Observe(&Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10})
	if row := custom.Report("").Rows[0]; row.Mode != "engaged" {
		t.Fatalf("re-engaged loop reports mode %q", row.Mode)
	}
}

func TestFleetScopedMetrics(t *testing.T) {
	reg := telemetryRegistry(t)
	f := NewFleet(Options{Registry: reg})
	if f.Registry() != reg {
		t.Fatal("Registry() is not the registry the loop scopes derive from")
	}
	l := f.Register("cpu0")
	for i := 0; i < 100; i++ {
		l.Observe(goodSample())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `loop_epochs_total{loop="cpu0"} 100`) {
		t.Fatalf("per-loop epochs counter missing:\n%s", out)
	}
	if !strings.Contains(out, `slo_burn_rate{loop="cpu0",slo="tracking"}`) {
		t.Fatalf("per-loop burn gauge missing:\n%s", out)
	}
}

func TestFleetBusMetrics(t *testing.T) {
	reg := telemetryRegistry(t)
	bus := NewBus(256)
	defer bus.Close()
	f := NewFleet(Options{Registry: reg, Bus: bus})
	l := f.Register("cpu0")
	for i := 0; i < 50; i++ {
		l.Observe(goodSample())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE obs_bus_published_total counter",
		"# TYPE obs_bus_dropped_total counter",
		"obs_bus_dropped_total 0",
		"# TYPE obs_bus_occupancy_hwm gauge",
		"obs_bus_capacity 256",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("bus metric %q missing:\n%s", want, out)
		}
	}
	// The published counter reads the bus's live atomic at scrape time.
	pub, _, _ := bus.Stats()
	if pub != 50 || !strings.Contains(out, "obs_bus_published_total 50") {
		t.Fatalf("published counter mismatch (bus says %d):\n%s", pub, out)
	}
}

func TestFleetTargetChangeResetsSettling(t *testing.T) {
	spec := Spec{
		Name: "settle", Signal: SignalSettling, Threshold: 0.1, Grace: 5,
		Objective: 0.9, Windows: []Window{{Epochs: 64, MaxBurn: 1000}},
	}
	f := NewFleet(Options{Specs: []Spec{spec}})
	l := f.Register("x")
	// Converged at target 100.
	for i := 0; i < 20; i++ {
		l.Observe(&Event{IPSTarget: 100, PowerTarget: 10, IPS: 100, PowerW: 10})
	}
	e := l.slos[0]
	if e.totalBad != 0 {
		t.Fatalf("converged loop counted %d bad epochs", e.totalBad)
	}
	// Target step: loop is far off but within grace — not bad yet.
	for i := 0; i < 5; i++ {
		l.Observe(&Event{IPSTarget: 200, PowerTarget: 10, IPS: 100, PowerW: 10})
	}
	if e.totalBad != 0 {
		t.Fatalf("grace period violated: %d bad epochs", e.totalBad)
	}
	// Still off past grace: now bad.
	for i := 0; i < 5; i++ {
		l.Observe(&Event{IPSTarget: 200, PowerTarget: 10, IPS: 100, PowerW: 10})
	}
	if e.totalBad == 0 {
		t.Fatal("unsettled loop past grace must count bad epochs")
	}
}

func TestFleetPublishesEvents(t *testing.T) {
	bus := NewBus(1 << 12)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	events, cancel := bus.Subscribe(16)
	defer cancel()
	l := f.Register("a")
	l.Observe(goodSample())
	ev := <-events
	if ev.LoopID != l.id || ev.Epoch != 1 {
		t.Fatalf("event = %+v", ev)
	}
	// Second observe with changed targets sets the flag.
	s := goodSample()
	s.IPSTarget = 120
	l.Observe(s)
	ev = <-events
	if ev.Flags&FlagTargetChange == 0 {
		t.Fatalf("target change not flagged: %+v", ev)
	}
}

func TestSLOHandler(t *testing.T) {
	f := NewFleet(Options{})
	l := f.Register("a")
	for i := 0; i < 100; i++ {
		l.Observe(goodSample())
	}
	rec := httptest.NewRecorder()
	f.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var rep FleetReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if body := rec.Body.String(); strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "}\n") {
		t.Fatalf("body is not one compact JSON line:\n%s", body)
	}
	if rep.Loops != 1 || len(rep.Rows) != 1 || rep.Rows[0].Loop != "a" {
		t.Fatalf("report = %+v", rep)
	}
	// Filtered to an unknown loop: empty rows, not an error.
	rec = httptest.NewRecorder()
	f.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo?loop=nope", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Rows) != 0 {
		t.Fatalf("filtered report rows = %d err = %v", len(rep.Rows), err)
	}
}

func TestEventsHandlerLimit(t *testing.T) {
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	l := f.Register("a")
	done := make(chan string, 1)
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?limit=3")
		if err != nil {
			done <- "err: " + err.Error()
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	// Keep publishing until the client has its 3 events.
	for {
		select {
		case body := <-done:
			lines := strings.Split(strings.TrimSpace(body), "\n")
			if len(lines) != 3 {
				t.Fatalf("got %d lines: %q", len(lines), body)
			}
			if !strings.Contains(lines[0], `"loop":"a"`) {
				t.Fatalf("unexpected line: %s", lines[0])
			}
			return
		default:
			l.Observe(goodSample())
		}
	}
}

func TestObserveAllocFree(t *testing.T) {
	reg := telemetryRegistry(t)
	bus := NewBus(1 << 16)
	defer bus.Close()
	f := NewFleet(Options{Registry: reg, Bus: bus})
	l := f.Register("hot")
	s := goodSample()
	l.Observe(s) // warm up (first target latch)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Observe(s)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f allocs/op, want 0", allocs)
	}
	// Events-off tier likewise.
	f2 := NewFleet(Options{})
	l2 := f2.Register("cold")
	l2.Observe(s)
	allocs = testing.AllocsPerRun(1000, func() {
		l2.Observe(s)
	})
	if allocs != 0 {
		t.Fatalf("events-off Observe allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	f := NewFleet(Options{})
	if f.Register("a") != f.Register("a") {
		t.Fatal("Register not idempotent")
	}
	if f.LoopName(0) != "a" || f.LoopName(99) != "" {
		t.Fatal("LoopName broken")
	}
}

func telemetryRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	return telemetry.NewRegistry()
}
