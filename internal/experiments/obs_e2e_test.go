package experiments

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mimoctl/internal/core"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

// TestFleetObservabilityE2E is the acceptance test for the fleet
// observability plane: 64 supervised MIMO loops run on namd, a known
// subset is struck by a persistent all-channel sensor NaN fault (the
// supervisor falls back and — with the fault never clearing — stays
// there), and the /slo report must flag exactly the fault-injected
// loops. The same drive is timed with the plane detached and attached
// (per-loop scopes + per-epoch events) to bound its overhead.
func TestFleetObservabilityE2E(t *testing.T) {
	const (
		nLoops = 64
		epochs = 1200
	)
	faulty := func(i int) bool { return i%8 == 3 } // loops 3, 11, ..., 59
	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	mimo, _, err := DesignedMIMO(false, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}

	loopName := func(i int) string { return fmt.Sprintf("e2e/loop-%02d", i) }
	drive := func() time.Duration {
		start := time.Now()
		for i := 0; i < nLoops; i++ {
			proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), DefaultSeed+801+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			inj := sim.NewFaultInjector(proc, DefaultSeed+901+int64(i))
			if faulty(i) {
				inj.AddSensorFault(sim.SensorFault{
					Kind: sim.FaultNaN, Channel: sim.ChAll, From: 0, Until: epochs,
				})
			}
			sup := supervisor.New(mimo.Clone(), supervisor.Options{})
			sup.Reset()
			sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
			wireLoopObs(sup, loopName(i))
			tel := inj.Step()
			for k := 0; k < epochs; k++ {
				cfg := sup.Step(tel)
				if cfg.Validate() != nil {
					cfg = tel.Config
				}
				sup.ObserveApply(cfg, inj.Apply(cfg))
				tel = inj.Step()
			}
		}
		return time.Since(start)
	}

	// Timed pass with the plane detached (wireLoopObs is a no-op), then
	// with scopes + events on; min-of-two on each side damps scheduler
	// noise. The second attached pass runs on a fresh fleet whose report
	// carries the assertions below.
	attach := func() (*obs.Fleet, *telemetry.Registry, func()) {
		reg := telemetry.NewRegistry()
		bus := obs.NewBus(1 << 14)
		fleet := obs.NewFleet(obs.Options{Registry: reg, Bus: bus})
		SetObservability(fleet)
		return fleet, reg, func() {
			SetObservability(nil)
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	SetObservability(nil)
	base := drive()
	_, _, detach := attach()
	withObs := drive()
	detach()
	for i := 0; i < 2; i++ {
		if d := drive(); d < base {
			base = d
		}
		_, _, detach := attach()
		if d := drive(); d < withObs {
			withObs = d
		}
		detach()
	}
	// The final attached pass runs on the fleet the assertions inspect —
	// with the telemetry-history recorder tapped onto the bus as a second
	// sink. The recorder rides the pump goroutine, not the publish path,
	// but it stays out of the timed min-of-two passes above so the
	// overhead gate keeps measuring the plane alone (the history cost is
	// measured end to end by the fleet workloads of bench/run.sh).
	reg := telemetry.NewRegistry()
	hist := tsdb.New(tsdb.Options{})
	var fleet *obs.Fleet
	rec := tsdb.NewRecorder(hist, func(id uint32) string { return fleet.LoopName(id) })
	bus := obs.NewBus(1<<14, rec)
	fleet = obs.NewFleet(obs.Options{Registry: reg, Bus: bus})
	SetObservability(fleet)
	defer SetObservability(nil)
	if d := drive(); d < withObs {
		withObs = d
	}

	overhead := float64(withObs-base) / float64(base)
	t.Logf("64-loop drive: detached %v, scopes+events %v (overhead %.1f%%)", base, withObs, 100*overhead)
	// The plane costs a fixed ~200ns/epoch plus the event pump (which on
	// a single-CPU host serializes with the producers). Against this
	// drive's synthetic ~1.2µs epochs that is tens of percent; at the
	// paper's 50µs epoch period the same cost is <1%
	// (BenchmarkSupervisedStepObs in internal/supervisor prices each
	// attachment tier). The in-test gate only catches pathological
	// regressions — an O(specs×windows) blowup or a blocking publish —
	// and is skipped under the race detector, whose instrumentation
	// multiplies exactly the atomic ops the plane is built from.
	if !raceEnabled && overhead > 1.0 {
		t.Errorf("observability overhead %.1f%% (detached %v, attached %v), gate 100%%",
			100*overhead, base, withObs)
	}

	// The /slo endpoint must flag exactly the fault-injected loops.
	srv := httptest.NewServer(fleet.SLOHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Loops != nLoops {
		t.Fatalf("report covers %d loops, want %d", rep.Loops, nLoops)
	}
	if rep.Level != "fail" {
		t.Errorf("fleet verdict %q (%s), want fail", rep.Level, rep.Detail)
	}
	alerting := map[string]bool{}
	for _, row := range rep.Rows {
		if row.Epochs != epochs {
			t.Errorf("%s observed %d epochs, want %d", row.Loop, row.Epochs, epochs)
		}
		if row.Alerting {
			alerting[row.Loop] = true
			if row.Mode != "fallback" {
				t.Errorf("alerting loop %s in mode %q, want fallback", row.Loop, row.Mode)
			}
			if row.FallbackEpochs == 0 {
				t.Errorf("alerting loop %s has no fallback epochs", row.Loop)
			}
		}
	}
	for i := 0; i < nLoops; i++ {
		if faulty(i) != alerting[loopName(i)] {
			t.Errorf("loop %s: alerting=%v, fault injected=%v", loopName(i), alerting[loopName(i)], faulty(i))
		}
	}
	// Hottest-first ordering: with 8 loops pinned in fallback, the top
	// of the table is all faulty loops.
	if n := len(rep.Rows); n > 0 && !rep.Rows[0].Alerting {
		t.Errorf("hottest row %s is not alerting", rep.Rows[0].Loop)
	}

	// Per-loop scoped series reached the registry.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, want := range []string{
		`loop_epochs_total{loop="e2e/loop-00"} 1200`,
		`loop_fallback_epochs_total{loop="e2e/loop-03"}`,
		`supervisor_epochs_total{loop="e2e/loop-00"} 1200`,
		// Bus health is a first-class scrape: publish/drop accounting and
		// the ring's occupancy high-water mark.
		fmt.Sprintf("obs_bus_published_total %d", rep.EventsPublished),
		fmt.Sprintf("obs_bus_dropped_total %d", rep.EventsDropped),
		"obs_bus_occupancy_hwm",
		"obs_bus_capacity 16384",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("scoped series %s missing from registry dump", want)
		}
	}
	if hwm := bus.OccupancyHWM(); hwm == 0 || hwm > uint64(bus.Cap()) {
		t.Errorf("bus occupancy high-water mark %d not in (0, %d]", hwm, bus.Cap())
	}
	// Every engaged-or-fallback epoch offered one event to the bus; under
	// flood the ring drops rather than block (back-pressure by design),
	// so published + dropped accounts for every epoch exactly.
	if total := rep.EventsPublished + rep.EventsDropped; total != nLoops*epochs {
		t.Errorf("bus saw %d events (%d published + %d dropped), want %d",
			total, rep.EventsPublished, rep.EventsDropped, nLoops*epochs)
	}

	// Drain the bus into the recorder, then reconcile history against the
	// bus accounting: the recorder is a sink, so it sees exactly the
	// published events — per-loop raw point counts must sum to
	// EventsPublished (every signal keeps the default 2048 raw epochs,
	// so a 1200-epoch run evicts nothing).
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Sync()
	var histTotal uint64
	var pts []tsdb.Point
	for i := 0; i < nLoops; i++ {
		pts = pts[:0]
		pts, _ = hist.Query(pts, loopName(i), "mode", 0, epochs, tsdb.ResRaw)
		histTotal += uint64(len(pts))
	}
	if histTotal != rep.EventsPublished {
		t.Errorf("history holds %d points, want %d (one per published event)",
			histTotal, rep.EventsPublished)
	}
	// The fault's signature survives in history for the early loops,
	// whose events land before the sequential drive floods the ring
	// (later loops may legitimately drop everything under back-pressure):
	// a struck loop's recorded mode reaches fallback and a healthy loop's
	// never leaves engaged (the sanitizer masks the NaNs out of the
	// measurement signals, so mode — not track_err — carries the story).
	for _, i := range []int{0, 3} {
		pts = pts[:0]
		pts, _ = hist.Query(pts, loopName(i), "mode", 0, epochs, tsdb.ResRaw)
		if len(pts) == 0 {
			t.Fatalf("loop %s has no mode history", loopName(i))
		}
		sawFallback := false
		for _, p := range pts {
			if p.Mean == float64(supervisor.ModeFallback) {
				sawFallback = true
			}
		}
		if faulty(i) && !sawFallback {
			t.Errorf("faulty loop %s never recorded fallback mode across %d points", loopName(i), len(pts))
		}
		if !faulty(i) && sawFallback {
			t.Errorf("healthy loop %s recorded fallback mode", loopName(i))
		}
	}
}
