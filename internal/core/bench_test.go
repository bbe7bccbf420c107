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

// BenchmarkBaselineProfile selects every Baseline one paper-suite seed
// asks for: k = 1, 2 and 3 on the two-input knob set and k = 2 on the
// three-input one, each knob set profiled once.
//
// Run with: go test ./internal/core/ -run '^$' -bench=BaselineProfile -benchmem -cpu 1
func BenchmarkBaselineProfile(b *testing.B) {
	training := experiments.TrainingWorkloads()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sel := range []struct {
			three bool
			ks    []int
		}{{false, []int{1, 2, 3}}, {true, []int{2}}} {
			prof, err := core.ProfileStatic(training, sel.three, 300, 7)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range sel.ks {
				if _, _, err := prof.Best(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkDesignMIMO times the two halves of the standard two-input
// design at the harness's spec: identify (training record, ARX fit,
// training-fit score) and synthesize (LQG design and the
// robust-stability loop on one fixed identification). The spec has no
// validation set, like the designs Fig6, Fig8 and the ablation run, so
// synthesize is what each of them costs on a memoized identification.
//
// Run with: go test ./internal/core/ -run '^$' -bench=DesignMIMO -benchmem -cpu 1
func BenchmarkDesignMIMO(b *testing.B) {
	spec := core.DesignSpec{Training: experiments.TrainingWorkloads(), Seed: experiments.DefaultSeed}
	b.Run("identify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.IdentifyMIMO(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synthesize", func(b *testing.B) {
		id, err := core.IdentifyMIMO(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.DesignFrom(spec, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
