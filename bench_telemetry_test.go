package mimoctl_test

// Overhead proof for the telemetry layer (GUIDE.md §10): the plant
// epoch step and the controller step are benchmarked three ways —
// uninstrumented (telemetry off, the seed behaviour), against the nop
// registry (instrument call sites live but inert), and against a live
// registry. The acceptance budget is <5% ns/op overhead for the live
// registry and no measurable difference for the nop one.
//
// Run with: go test -run '^$' -bench=Telemetry -benchmem

import (
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// telemetryTiers enumerates the three instrumentation states. The live
// registry is rebuilt per run so accumulated state never leaks between
// benchmarks.
func telemetryTiers() []struct {
	name string
	reg  func() *telemetry.Registry
} {
	return []struct {
		name string
		reg  func() *telemetry.Registry
	}{
		{"off", func() *telemetry.Registry { return nil }},
		{"nop", telemetry.Nop},
		{"live", telemetry.NewRegistry},
	}
}

func BenchmarkProcessorEpochTelemetry(b *testing.B) {
	w, err := workloads.ByName("namd")
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range telemetryTiers() {
		b.Run(tier.name, func(b *testing.B) {
			sim.SetTelemetry(tier.reg())
			defer sim.SetTelemetry(nil)
			proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				proc.Step()
			}
		})
	}
}

func BenchmarkControllerStepTelemetry(b *testing.B) {
	ctrl, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range telemetryTiers() {
		b.Run(tier.name, func(b *testing.B) {
			core.SetTelemetry(tier.reg())
			defer core.SetTelemetry(nil)
			ctrl.Reset()
			ctrl.SetTargets(2.5, 2.0)
			tel := sim.Telemetry{IPS: 2.3, PowerW: 1.9, Config: sim.MidrangeConfig()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tel.Config = ctrl.Step(tel)
			}
		})
	}
}
