package sim_test

import (
	"testing"

	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// tracedProfile runs a workload profile in the trace-driven mode.
type tracedProfile struct{ *workloads.Profile }

// TraceSpec implements sim.TraceSpecProvider: it derives the address-
// stream character of a phase from the same parameters that define its
// analytic miss curves, so the trace-driven simulator mode reproduces
// the workload's cache behaviour from first principles.
func (p tracedProfile) TraceSpec(phaseID int) sim.TraceSpec {
	if phaseID < 0 || phaseID >= len(p.Phases) {
		phaseID = 0
	}
	q := p.Phases[phaseID].Params
	spec := sim.DefaultTraceSpec()
	// Hot working set: cache-sensitive workloads (large L1 miss rate at
	// one way relative to the floor) have working sets around the cache
	// capacity scale; insensitive ones fit easily.
	ws := 24.0 * q.L1M1 / (q.L1Floor + 1)
	if ws < 16 {
		ws = 16
	}
	if ws > 512 {
		ws = 512
	}
	spec.WorkingSetBytes = uint64(ws) << 10
	// Cold (compulsory/streaming) accesses are the ones no cache size
	// retains: the L2 floor as a fraction of all memory accesses.
	cold := q.L2Floor / q.MemPKI
	if cold > 0.5 {
		cold = 0.5
	}
	spec.ColdFraction = cold
	// Spatial locality tracks the achievable memory-level parallelism.
	stride := 0.1 + (q.MLPMax-1)/8
	if stride > 0.5 {
		stride = 0.5
	}
	spec.StrideFraction = stride
	// Temporal locality tracks how steeply misses fall with ways.
	spec.ZipfS = 1.05 + 0.3*q.L1Alpha
	if spec.ZipfS > 1.6 {
		spec.ZipfS = 1.6
	}
	return spec
}

func TestTraceSpecsDriveTraceProcessor(t *testing.T) {
	// Every profile provides a TraceSpec and can run in the trace-driven
	// mode; the measured L1 miss traffic must agree with the analytic
	// curve's ordering (full cache ≤ gated cache misses).
	for _, name := range []string{"namd", "milc", "mcf", "sjeng"} {
		prof, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := tracedProfile{prof}
		measure := func(cacheIdx int) float64 {
			tp, err := sim.NewTraceProcessor(p, sim.ProcessorOptions{Deterministic: true}, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.Apply(sim.Config{FreqIdx: 8, CacheIdx: cacheIdx, ROBIdx: 3}); err != nil {
				t.Fatal(err)
			}
			tp.Run(150)
			var sum float64
			for _, tel := range tp.Run(80) {
				sum += tel.L1MPKI
			}
			return sum / 80
		}
		full := measure(0)
		gated := measure(3)
		if full > gated+1e-9 {
			t.Errorf("%s: trace-mode L1 MPKI with full cache (%.2f) exceeds gated (%.2f)", name, full, gated)
		}
	}
}

func TestTraceSpecSanity(t *testing.T) {
	for _, prof := range workloads.All() {
		p := tracedProfile{prof}
		for i := range p.Phases {
			spec := p.TraceSpec(i)
			if spec.WorkingSetBytes < 16<<10 || spec.WorkingSetBytes > 512<<10 {
				t.Errorf("%s phase %d: working set %d out of range", p.Name(), i, spec.WorkingSetBytes)
			}
			if spec.ColdFraction < 0 || spec.ColdFraction > 0.5 {
				t.Errorf("%s phase %d: cold fraction %v", p.Name(), i, spec.ColdFraction)
			}
			if spec.ZipfS <= 1 || spec.ZipfS > 1.6 {
				t.Errorf("%s phase %d: zipf %v", p.Name(), i, spec.ZipfS)
			}
		}
		// Out-of-range phase IDs fall back to phase 0.
		if p.TraceSpec(-1) != p.TraceSpec(0) || p.TraceSpec(999) != p.TraceSpec(0) {
			t.Errorf("%s: phase fallback broken", p.Name())
		}
	}
}
