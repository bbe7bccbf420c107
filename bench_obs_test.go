package mimoctl_test

// Overhead proof for the fleet observability plane (DESIGN.md "Hot path
// and memory discipline"): the supervised controller step is benchmarked
// with observability detached (the seed hot path — one nil check per
// epoch), with a fleet loop attached (SLO scoring + scoped counters),
// and with the event bus publishing a wide event per epoch. The
// acceptance budget is zero allocations with events off (gated by
// TestObsOffStepAllocFree in internal/supervisor) and <5% ns/op
// overhead for the full experiment suite with the plane enabled.
//
// Run with: go test -run '^$' -bench=Obs -benchmem

import (
	"testing"

	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
)

// benchTel is one clean mid-range epoch of plant telemetry.
func benchTel() sim.Telemetry {
	return sim.Telemetry{IPS: 2.3, PowerW: 1.9, TrueIPS: 2.3, TruePowerW: 1.9,
		L1MPKI: 10, L2MPKI: 3, Config: sim.MidrangeConfig()}
}

func BenchmarkSupervisedStepObs(b *testing.B) {
	proto, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	// Each tier builds its own fleet so SLO windows and counters start
	// cold; the bus tier drains into a no-sink pump (sink cost is the
	// writer's, not the control loop's).
	tiers := []struct {
		name string
		loop func(b *testing.B) (*obs.Loop, func())
	}{
		{"detached", func(b *testing.B) (*obs.Loop, func()) { return nil, func() {} }},
		{"fleet", func(b *testing.B) (*obs.Loop, func()) {
			f := obs.NewFleet(obs.Options{})
			return f.Register("bench"), func() {}
		}},
		{"fleet+metrics", func(b *testing.B) (*obs.Loop, func()) {
			f := obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry()})
			return f.Register("bench"), func() {}
		}},
		{"fleet+events", func(b *testing.B) (*obs.Loop, func()) {
			bus := obs.NewBus(1 << 14)
			f := obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
			return f.Register("bench"), func() {
				if err := bus.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			loop, done := tier.loop(b)
			defer done()
			sup := supervisor.New(proto.Clone(), supervisor.Options{})
			sup.SetTargets(2.5, 2.0)
			sup.SetLoopObs(loop)
			tel := benchTel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tel.Epoch = i
				tel.Config = sup.Step(tel)
			}
		})
	}
}

// BenchmarkObsSuiteOverhead runs one pass of every experiment with the
// observability plane detached and attached (fleet + registry + bus, no
// sinks) — the end-to-end cost of leaving per-loop scopes and events on
// in CI. Named so the PARALLEL=1 capture's 'ExpAll' pattern does not
// pick it up.
func BenchmarkObsSuiteOverhead(b *testing.B) {
	warmExpDesigns(b)
	for _, attached := range []bool{false, true} {
		name := "detached"
		if attached {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			if attached {
				bus := obs.NewBus(1 << 14)
				fleet := obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
				experiments.SetObservability(fleet)
				defer func() {
					experiments.SetObservability(nil)
					if err := bus.Close(); err != nil {
						b.Fatal(err)
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				runExpAll(b)
			}
		})
	}
}
