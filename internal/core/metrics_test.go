package core

import (
	"math"
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
)

// TestBindTelemetryPerInstance: a controller drives only the registry
// it is bound to. Two clones on two registries count exactly their own
// steps and target changes, an unbound clone counts nowhere, a clone of
// a bound controller starts unbound, and telemetry.Nop() unbinds.
func TestBindTelemetryPerInstance(t *testing.T) {
	t.Parallel()
	proto, _ := designTestController(t, false)
	w := mustWorkload(t, "namd")
	drive := func(c *MIMOController, epochs int) {
		t.Helper()
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 21)
		if err != nil {
			t.Fatal(err)
		}
		tel := proc.Step()
		for k := 0; k < epochs; k++ {
			if err := proc.Apply(c.Step(tel)); err != nil {
				t.Fatal(err)
			}
			tel = proc.Step()
		}
	}
	// counts reads (steps, accepted targets, rejected targets, sampled
	// LQG timings, innovation samples).
	// newCtrlMetrics fetches the instruments a registry already holds.
	counts := func(reg *telemetry.Registry) [5]uint64 {
		m := newCtrlMetrics(reg)
		return [5]uint64{
			m.steps.Value(),
			m.targetChanges.Value(),
			m.targetErrors.Value(),
			m.lqgSeconds.Snapshot().Count,
			m.innovIPS.Snapshot().Count,
		}
	}

	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	a, b, unbound := proto.Clone(), proto.Clone(), proto.Clone()
	a.BindTelemetry(regA)
	b.BindTelemetry(regB)
	a.SetTargets(DefaultIPSTarget, DefaultPowerTarget)
	drive(a, 40)
	b.SetTargets(math.NaN(), DefaultPowerTarget)
	drive(b, 25)
	drive(unbound, 30)
	// Latency is sampled every ctrlSampleEvery (16) steps.
	if got, want := counts(regA), [5]uint64{40, 1, 0, 2, 40}; got != want {
		t.Errorf("registry A = %v, want %v", got, want)
	}
	if got, want := counts(regB), [5]uint64{25, 0, 1, 1, 25}; got != want {
		t.Errorf("registry B = %v, want %v", got, want)
	}

	drive(a.Clone(), 10)
	a.BindTelemetry(telemetry.Nop())
	drive(a, 10)
	if got := counts(regA)[0]; got != 40 {
		t.Errorf("registry A counts %d steps after a clone ran and Nop unbound it, want 40", got)
	}
}
