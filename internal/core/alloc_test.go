package core

import (
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/telemetry"
)

// TestMIMOStepAllocBudget pins the per-epoch allocation budget of the
// deployed controller loop. The LQG math underneath is allocation-free
// (see internal/lqg); the only allocations MIMOController.Step itself
// is allowed are the ones budgeted here.
//
// Budget: 0 allocs/op steady state, unbound and bound to a live
// registry. The telemetry layer records into preallocated
// histograms/counters and the latency timer (fires every
// ctrlSampleEvery steps) observes into a fixed-bucket histogram, so no
// step — sampled or not — may allocate. Raise this budget only with a
// comment justifying each new allocation.
func TestMIMOStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("controller design is slow")
	}
	const stepAllocBudget = 0
	proto, _ := designTestController(t, false)
	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		ctrl := proto.Clone()
		ctrl.BindTelemetry(reg)
		ctrl.SetTargets(DefaultIPSTarget, DefaultPowerTarget)
		proc, err := sim.NewProcessor(mustWorkload(t, "namd"), sim.DefaultProcessorOptions(), 21)
		if err != nil {
			t.Fatal(err)
		}
		tel := proc.Step()
		// Warm past startup transients (reference ramp, first quantization).
		for k := 0; k < 50; k++ {
			if err := proc.Apply(ctrl.Step(tel)); err != nil {
				t.Fatal(err)
			}
			tel = proc.Step()
		}
		allocs := testing.AllocsPerRun(200, func() {
			ctrl.Step(tel)
		})
		if allocs > stepAllocBudget {
			t.Fatalf("MIMOController.Step (live registry: %v) allocates %v times per epoch, budget %d",
				reg != nil, allocs, stepAllocBudget)
		}
	}
}
