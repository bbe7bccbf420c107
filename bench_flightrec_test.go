package mimoctl_test

// Overhead proof for the flight recorder (DESIGN.md "Hot path and
// memory discipline"): the controller step is benchmarked with the
// recorder detached (the seed hot path — the only added cost is one nil
// check) and attached (one uncontended mutex acquire plus a 128-byte
// record copy per epoch). The acceptance budget is zero allocations in
// both tiers and <5% ns/op overhead for the full experiment suite with
// harness-wide recording enabled.
//
// Run with: go test -run '^$' -bench=FlightRec -benchmem

import (
	"testing"

	"mimoctl/internal/experiments"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/sim"
)

func BenchmarkControllerStepFlightRec(b *testing.B) {
	ctrl, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		rec  *flightrec.Recorder
	}{
		{"detached", nil},
		{"attached", flightrec.New(4096)},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := ctrl.Clone()
			c.Reset()
			c.SetTargets(2.5, 2.0)
			c.SetFlightRecorder(tier.rec)
			defer c.SetFlightRecorder(nil)
			tel := sim.Telemetry{IPS: 2.3, PowerW: 1.9, Config: sim.MidrangeConfig()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tel.Config = c.Step(tel)
			}
		})
	}
}

// BenchmarkFlightRecSuiteOverhead runs one pass of every experiment
// with harness-wide recording disabled and enabled (rings only, no dump
// directory) — the end-to-end cost of leaving the recorder on in CI.
// Deliberately named so the PARALLEL=1 capture's 'ExpAll' pattern does
// not pick it up: the allocs/op gate tracks the unrecorded loop.
func BenchmarkFlightRecSuiteOverhead(b *testing.B) {
	warmExpDesigns(b)
	for _, tier := range []struct {
		name string
		cfg  experiments.FlightRecConfig
	}{
		{"disabled", experiments.FlightRecConfig{}},
		{"enabled", experiments.FlightRecConfig{Enabled: true}},
	} {
		b.Run(tier.name, func(b *testing.B) {
			experiments.SetFlightRecording(tier.cfg)
			defer experiments.SetFlightRecording(experiments.FlightRecConfig{})
			for i := 0; i < b.N; i++ {
				runExpAll(b)
			}
		})
	}
}
