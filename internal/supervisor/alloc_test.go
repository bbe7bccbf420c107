package supervisor_test

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

// TestObsOffStepAllocFree pins the events-off hot path at zero
// allocations per epoch: the bare MIMO controller step (the seed gate)
// and the supervised step with a fleet loop attached but no event bus —
// SLO scoring and scoped counters must not cost heap. The supervised
// loop is measured past its grace period, where the innovation monitor
// reads the inner controller's innovation every epoch. Every fleet loop
// (internal/batch) runs this step.
func TestObsOffStepAllocFree(t *testing.T) {
	proto, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}

	ctrl := proto.Clone()
	ctrl.Reset()
	ctrl.SetTargets(2.5, 2.0)
	tel := benchTel()
	if n := testing.AllocsPerRun(200, func() {
		tel.Config = ctrl.Step(tel)
	}); n != 0 {
		t.Fatalf("MIMOController.Step allocates %.1f/op with observability off, want 0", n)
	}

	f := obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry()})
	sup := supervisor.New(proto.Clone(), supervisor.Options{})
	sup.SetTargets(2.5, 2.0)
	sup.SetLoopObs(f.Register("gate"))
	st := benchTel()
	epoch := 0
	// Warm up past the grace period (and with it the engage/hold
	// transient and first-epoch latches).
	for ; epoch < supervisor.GraceEpochs+64; epoch++ {
		st.Epoch = epoch
		st.Config = sup.Step(st)
	}
	if sup.Mode() != supervisor.ModeEngaged {
		t.Fatalf("supervisor left engaged mode during warm-up (mode %v)", sup.Mode())
	}
	if n := testing.AllocsPerRun(200, func() {
		st.Epoch = epoch
		epoch++
		st.Config = sup.Step(st)
	}); n != 0 {
		t.Fatalf("Supervised.Step allocates %.1f/op past grace with events off, want 0", n)
	}
}
