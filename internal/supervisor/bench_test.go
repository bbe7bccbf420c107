package supervisor_test

// The supervised step with the fleet observability plane detached (one
// nil check per epoch), with a fleet loop attached (SLO scoring), with
// the loop's scoped counters, and with the event bus publishing one
// event per epoch. TestObsOffStepAllocFree gates the events-off tiers
// at zero allocations.
//
// Run with: go test ./internal/supervisor/ -run '^$' -bench=SupervisedStepObs -benchmem

import (
	"testing"

	"mimoctl/internal/experiments"
	"mimoctl/internal/obs"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
)

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
