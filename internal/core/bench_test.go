package core_test

// Micro-benchmarks of the controller step, the step every 50 µs epoch
// runs: bare, with a flight recorder attached, and bound to a live
// telemetry registry. Each runs a clone of the standard design, the one
// the experiment suite steps.
//
// Run with: go test ./internal/core/ -run '^$' -bench=ControllerStep -benchmem

import (
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
)

// benchController returns a reset clone of the standard design tracking
// 2.5 BIPS / 2 W.
func benchController(b *testing.B) *core.MIMOController {
	b.Helper()
	proto, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	c := proto.Clone()
	c.Reset()
	c.SetTargets(2.5, 2.0)
	return c
}

// benchStep times c stepping on its own requests.
func benchStep(b *testing.B, c *core.MIMOController) {
	tel := sim.Telemetry{IPS: 2.3, PowerW: 1.9, Config: sim.MidrangeConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Config = c.Step(tel)
	}
}

// BenchmarkControllerStep is the runtime cost of one controller
// invocation: the paper's "four floating-point vector-matrix
// multiplies".
func BenchmarkControllerStep(b *testing.B) {
	benchStep(b, benchController(b))
}

// BenchmarkControllerStepFlightRec prices the flight recorder: detached
// it is one nil check, attached one uncontended mutex acquire plus a
// fixed-layout record copy, with zero allocations either way.
func BenchmarkControllerStepFlightRec(b *testing.B) {
	for _, tier := range []struct {
		name string
		rec  *flightrec.Recorder
	}{
		{"detached", nil},
		{"attached", flightrec.New(4096)},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := benchController(b)
			c.SetFlightRecorder(tier.rec)
			benchStep(b, c)
		})
	}
}

// BenchmarkControllerStepTelemetry prices the controller instruments:
// off (unbound, one nil check) and live (bound to a fresh registry).
func BenchmarkControllerStepTelemetry(b *testing.B) {
	for _, live := range []bool{false, true} {
		b.Run(map[bool]string{false: "off", true: "live"}[live], func(b *testing.B) {
			c := benchController(b)
			if live {
				c.BindTelemetry(telemetry.NewRegistry())
			}
			benchStep(b, c)
		})
	}
}
