package sim

import (
	"math"
	"testing"

	"mimoctl/internal/telemetry"
)

// checkSurface compares the tabulated models, refreshed for p through
// s as the epoch step does, against the reference at every
// configuration, by bit pattern on every PerfResult and PowerResult
// field.
func checkSurface(t *testing.T, stage string, s *surface, p PhaseParams, warmL1, warmL2, stall, tempC float64) {
	t.Helper()
	for fi := 0; fi < numFreqLevels; fi++ {
		for ci := 0; ci < numCacheLevels; ci++ {
			for ri := 0; ri < numROBLevels; ri++ {
				cfg := Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri}
				var perf PerfResult
				var pw PowerResult
				s.refresh(&p)
				s.perfInto(&perf, &p, cfg, warmL1, warmL2, stall)
				powerInto(&pw, &p, cfg, &perf, tempC, p.Activity)
				wantPerf := refEvalPerf(p, cfg, warmL1, warmL2, stall)
				if d := bitDiff(perf, wantPerf); d != "" {
					t.Fatalf("%s, %v, params %+v: %s", stage, cfg, p, d)
				}
				wantPw := refEvalPower(p, cfg, wantPerf, tempC, p.Activity)
				if d := bitDiff(pw, wantPw); d != "" {
					t.Fatalf("%s, %v, params %+v: %s", stage, cfg, p, d)
				}
			}
		}
	}
}

// FuzzSurfaceMatchesReference drives one surface through a new phase,
// the same key again under AR-style scaling of the untabulated fields,
// a changed ROB key and a changed miss-curve key, checking all 512
// configurations against the reference at each step.
func FuzzSurfaceMatchesReference(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	add := func(p PhaseParams, warmL1, warmL2, stall, tempC, mult, robDemand2, l2Alpha2 float64) {
		f.Add(p.ILP, p.MemPKI, p.L1M1, p.L1Alpha, p.L1Floor, p.L2M1, p.L2Alpha, p.L2Floor,
			p.BranchMPKI, p.MLPMax, p.ROBDemand, p.Activity,
			warmL1, warmL2, stall, tempC, mult, robDemand2, l2Alpha2)
	}
	add(computeParams(), 0, 0, 0, 50, 1, 30, 1.1)
	mem := memoryParams()
	mem.ROBDemand = 55
	add(mem, 10, 3, 0.1, 90, 1.05, -1, 0.4)
	// The trace-driven processor's flat curves: alpha 0, m1 = floor.
	flat := computeParams()
	flat.L1M1, flat.L1Alpha, flat.L1Floor = 7.5, 0, 7.5
	flat.L2M1, flat.L2Alpha, flat.L2Floor = 0.8, 0, 0.8
	add(flat, 0, 0, 0, 45, 0.97, negZero, 0)
	add(PhaseParams{}, 0, 0, 0, 0, 0, 0, 0)
	add(PhaseParams{ILP: nan, MemPKI: inf, L1M1: -inf, L1Alpha: inf, L1Floor: nan,
		L2M1: nan, L2Alpha: -inf, L2Floor: inf, BranchMPKI: -1, MLPMax: nan,
		ROBDemand: nan, Activity: -inf}, inf, nan, nan, -inf, nan, inf, nan)
	add(PhaseParams{ILP: 3, L1M1: 5, L1Alpha: -2, L1Floor: 9, L2M1: -3, L2Alpha: 1e300,
		L2Floor: -1, MLPMax: 0.5, ROBDemand: -inf, Activity: 1}, -5, 7, 2, 1e308, -1, 1e-300, nan)

	f.Fuzz(func(t *testing.T, ilp, memPKI, l1m1, l1a, l1f, l2m1, l2a, l2f, br, mlp, robDemand, activity,
		warmL1, warmL2, stall, tempC, mult, robDemand2, l2Alpha2 float64) {
		p := PhaseParams{
			ILP: ilp, MemPKI: memPKI,
			L1M1: l1m1, L1Alpha: l1a, L1Floor: l1f,
			L2M1: l2m1, L2Alpha: l2a, L2Floor: l2f,
			BranchMPKI: br, MLPMax: mlp, ROBDemand: robDemand, Activity: activity,
		}
		var s surface
		checkSurface(t, "new phase", &s, p, warmL1, warmL2, stall, tempC)
		p.ILP *= mult
		p.MemPKI *= mult
		p.Activity *= mult
		checkSurface(t, "same key", &s, p, warmL1, warmL2, stall, tempC)
		p.ROBDemand = robDemand2
		checkSurface(t, "ROB key changed", &s, p, warmL1, warmL2, stall, tempC)
		p.L2Alpha = l2Alpha2
		checkSurface(t, "miss key changed", &s, p, warmL1, warmL2, stall, tempC)
	})
}

// phasedWorkload alternates two phases every period epochs.
type phasedWorkload struct {
	phases [2]PhaseParams
	period int
}

func (w phasedWorkload) Name() string { return "phased" }
func (w phasedWorkload) Params(epoch int) (PhaseParams, int) {
	id := epoch / w.period % 2
	return w.phases[id], id
}

// TestPlantStepAllocFree pins the plant's epoch step at zero
// allocations, across phase boundaries where both halves of the
// surface are rebuilt, unbound and bound to a live registry (whose
// sampled epochs the measured windows cross). StaticSweep allocates
// its set-up and results only: its count does not grow with the
// epochs it runs.
func TestPlantStepAllocFree(t *testing.T) {
	a, b := computeParams(), memoryParams()
	b.ROBDemand = 55 // a's is 0 (the default): the ROB key changes too
	w := phasedWorkload{phases: [2]PhaseParams{a, b}, period: 8}
	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		newProc := func() *Processor {
			p, err := NewProcessor(w, DefaultProcessorOptions(), 1)
			if err != nil {
				t.Fatal(err)
			}
			p.BindTelemetry(reg)
			return p
		}
		proc := newProc()
		inj := NewFaultInjector(newProc(), 2).
			AddSensorFault(SensorFault{Kind: FaultDrift, Channel: ChPower, Magnitude: 1e-3}).
			AddPlantFault(PlantFault{Kind: PlantGainDrift, GainRateIPS: 1e-4, GainLimitIPS: 0.9})
		bound := map[bool]string{false: "unbound", true: "live"}[reg != nil]
		for _, tc := range []struct {
			name  string
			plant *Processor
			step  func()
		}{
			{"Processor.Step", proc, func() { proc.Step() }},
			{"FaultInjector.Step", inj.proc, func() { inj.Step() }},
		} {
			before := tc.plant.epoch
			if n := testing.AllocsPerRun(100, tc.step); n != 0 {
				t.Errorf("%s (%s): %v allocs/op, want 0", tc.name, bound, n)
			}
			if after := tc.plant.epoch; after/w.period == before/w.period {
				t.Errorf("%s (%s): epochs %d..%d stay in one phase; the window must cross a boundary", tc.name, bound, before, after)
			}
		}
		if reg != nil {
			if n := reg.Counter("sim_epochs_total", "").Value(); n == 0 {
				t.Error("the live registry counted no epochs")
			}
		}
	}

	cfgs := []Config{BaselineConfig(), MidrangeConfig(), {FreqIdx: 15, CacheIdx: 3, ROBIdx: 7}}
	sweepAllocs := func(epochs int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := StaticSweep(w, DefaultProcessorOptions(), 1, cfgs, 3, epochs); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Both windows cross phase boundaries (period 8).
	if short, long := sweepAllocs(10), sweepAllocs(200); short != long {
		t.Errorf("StaticSweep: %v allocs/op over 10 epochs, %v over 200; want no per-epoch allocation", short, long)
	}
}
