package mimoctl_test

// Overhead proof for the telemetry-history store (the <5% observability
// budget from DESIGN.md): the full experiment suite runs with the fleet
// plane attached twice — once with the bus draining into no sinks, once
// with the tsdb recorder tapped on — so the ratio isolates what history
// recording adds on top of the already-gated observability cost. The
// recorder rides the pump goroutine, so on a multi-core host the delta
// is near zero; on a single-CPU host the pump serializes with the
// producers and the gate still must hold.
//
// Run with: go test -run '^$' -bench=TSDB -benchmem

import (
	"testing"

	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
)

// benchSuiteWithObs runs the full suite with the fleet plane attached,
// optionally recording telemetry history as a bus sink.
func benchSuiteWithObs(b *testing.B, history bool) {
	warmExpDesigns(b)
	var sinks []obs.Sink
	var fleet *obs.Fleet
	if history {
		db := tsdb.New(tsdb.Options{})
		sinks = append(sinks, tsdb.NewRecorder(db, func(id uint32) string { return fleet.LoopName(id) }))
	}
	bus := obs.NewBus(1<<14, sinks...)
	fleet = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
	experiments.SetObservability(fleet)
	defer func() {
		experiments.SetObservability(nil)
		if err := bus.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runExpAll(b)
	}
}

func BenchmarkTSDBSuiteDetached(b *testing.B) { benchSuiteWithObs(b, false) }

func BenchmarkTSDBSuiteAttached(b *testing.B) { benchSuiteWithObs(b, true) }
