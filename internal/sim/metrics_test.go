package sim

import (
	"math"
	"testing"

	"mimoctl/internal/telemetry"
)

// TestBindTelemetryPerInstance: a processor drives only the registry it
// is bound to. Two processors on two registries count exactly their own
// epochs and actuations, an unbound one counts nowhere, telemetry.Nop()
// unbinds, the cumulative counters count from the binding on, and a
// trace-driven processor reports its per-level cache traffic.
func TestBindTelemetryPerInstance(t *testing.T) {
	t.Parallel()
	w := stubWorkload{name: "compute", params: computeParams()}
	newProc := func(reg *telemetry.Registry) *Processor {
		t.Helper()
		p, err := NewProcessor(w, DefaultProcessorOptions(), 1)
		if err != nil {
			t.Fatal(err)
		}
		p.BindTelemetry(reg)
		return p
	}
	counts := func(reg *telemetry.Registry) [3]uint64 {
		return [3]uint64{
			reg.Counter("sim_epochs_total", "").Value(),
			reg.Counter("sim_dvfs_transitions_total", "").Value(),
			reg.Counter("sim_apply_invalid_total", "").Value(),
		}
	}
	faster := MidrangeConfig()
	faster.FreqIdx++

	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	a, b, unbound := newProc(regA), newProc(regB), newProc(nil)
	a.Advance(100)
	if err := a.Apply(faster); err != nil {
		t.Fatal(err)
	}
	b.Advance(37)
	if err := b.Apply(Config{FreqIdx: -1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	unbound.Advance(50)
	if err := unbound.Apply(faster); err != nil {
		t.Fatal(err)
	}
	if got, want := counts(regA), [3]uint64{100, 1, 0}; got != want {
		t.Errorf("registry A (epochs, dvfs, invalid) = %v, want %v", got, want)
	}
	if got, want := counts(regB), [3]uint64{37, 0, 1}; got != want {
		t.Errorf("registry B (epochs, dvfs, invalid) = %v, want %v", got, want)
	}

	a.BindTelemetry(telemetry.Nop())
	a.Advance(10)
	if got := regA.Counter("sim_epochs_total", "").Value(); got != 100 {
		t.Errorf("registry A counts %d epochs after Nop unbound it, want 100", got)
	}

	// Bound at epoch 10, flushed on the sampled epoch 64.
	regC := telemetry.NewRegistry()
	late := newProc(nil)
	late.Advance(10)
	e0, i0, _ := late.Totals()
	late.BindTelemetry(regC)
	late.Advance(55)
	e1, i1, _ := late.Totals()
	if got, want := regC.FloatCounter("sim_energy_joules_total", "").Value(), e1-e0; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("sim_energy_joules_total = %v, want %v (the energy since binding)", got, want)
	}
	if got, want := regC.FloatCounter("sim_instructions_total", "").Value(), i1-i0; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("sim_instructions_total = %v, want %v (the instructions since binding)", got, want)
	}

	regT := telemetry.NewRegistry()
	tp, err := NewTraceProcessor(newTraceStub(), ProcessorOptions{Deterministic: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp.BindTelemetry(regT)
	tp.Step()
	l1Acc, l1Miss := tp.Hierarchy().L1.Stats()
	if got := regT.Counter("sim_cache_accesses_total", "", telemetry.L("level", "l1")).Value(); got != l1Acc || got == 0 {
		t.Errorf("sim_cache_accesses_total{level=l1} = %d, want %d (nonzero)", got, l1Acc)
	}
	if got := regT.Counter("sim_cache_misses_total", "", telemetry.L("level", "l1")).Value(); got != l1Miss {
		t.Errorf("sim_cache_misses_total{level=l1} = %d, want %d", got, l1Miss)
	}
}
