package batch

import (
	"fmt"
	"math/rand"
	"testing"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
)

// allocFleet builds an n-loop fleet warmed past its grace period (so
// the alarm and EMA path is live) for the zero-alloc gates, alternating
// 2-input loops (the N4I2O2 kernel) and 3-input loops (the N4I3O2
// kernel) when mixed. wire attaches a fleet plane: "" none, "fleet" a registry
// with per-loop scopes, "events" the registry plus an event bus.
func allocFleet(tb testing.TB, n int, mixed bool, wire string) (*SupEngine, []sim.Telemetry, []sim.Config, func()) {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	e := NewSupervised()
	cleanup := func() {}
	var fleet *obs.Fleet
	switch wire {
	case "fleet":
		fleet = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry()})
	case "events":
		bus := obs.NewBus(4096)
		fleet = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
		cleanup = func() { _ = bus.Close() }
	}
	// Targets are pinned to each loop's operating point so the
	// tracking-error EMA settles near zero: no loop may leave the
	// nominal path, however many epochs the gates and benchmarks run.
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{IPS: 1.5 + rng.Float64(), PowerW: 5 + rng.Float64()*2, Config: sim.MidrangeConfig()}
	}
	for i := 0; i < n; i++ {
		s := supervisor.New(designedController(tb, mixed && i%2 == 1), supervisor.Options{})
		s.SetTargets(tels[i].IPS, tels[i].PowerW)
		if fleet != nil {
			l := fleet.Register(fmt.Sprintf("loop-%d", i))
			s.SetLoopObs(l)
			s.BindTelemetry(l.Scope())
		}
		if _, err := e.Add(s); err != nil {
			tb.Fatal(err)
		}
	}
	outs := make([]sim.Config, n)
	for w := 0; w < supGrace+100; w++ {
		if err := e.StepAll(tels, outs); err != nil {
			tb.Fatal(err)
		}
	}
	return e, tels, outs, cleanup
}

// requireFleetAllocFree fails unless a fleet epoch allocates nothing
// and no loop left the nominal path.
func requireFleetAllocFree(t *testing.T, e *SupEngine, tels []sim.Telemetry, outs []sim.Config) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, func() {
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("StepAll allocates %.1f objects per fleet epoch, want 0", avg)
	}
	for i := 0; i < len(e.loops); i++ {
		if e.Parked(i) {
			t.Fatalf("loop %d left the nominal path during the alloc run", i)
		}
	}
}

// TestBatchStepZeroAlloc pins a fleet epoch of 2- and 3-input loops,
// with nothing observing them, at 0 allocs.
func TestBatchStepZeroAlloc(t *testing.T) {
	e, tels, outs, cleanup := allocFleet(t, 64, true, "")
	defer cleanup()
	requireFleetAllocFree(t, e, tels, outs)
}

// TestBatchSupervisedStepZeroAlloc pins a fleet epoch at 0 allocs with
// the fleet plane attached: per-loop scopes and SLOs ("bare"), and with
// them the event bus ("events").
func TestBatchSupervisedStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct{ name, wire string }{{"bare", "fleet"}, {"events", "events"}} {
		t.Run(tc.name, func(t *testing.T) {
			e, tels, outs, cleanup := allocFleet(t, 64, false, tc.wire)
			defer cleanup()
			requireFleetAllocFree(t, e, tels, outs)
		})
	}
}

// BenchmarkBatchSupervisedStep measures one fleet epoch per loop over
// 1024 2-input loops wired to a fleet plane with an event bus, the
// fleet workloads' configuration; TestBatchSupervisedStepZeroAlloc pins
// it at 0 allocs/op.
func BenchmarkBatchSupervisedStep(b *testing.B) {
	e, tels, outs, cleanup := allocFleet(b, 1024, false, "events")
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/lanestep")
}
