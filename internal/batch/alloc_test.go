package batch

import (
	"math/rand"
	"testing"

	"mimoctl/internal/sim"
)

// fleetEngine builds an N-lane engine of warmed-up 3-input clones plus
// the telemetry/output slices StepAll consumes.
func fleetEngine(tb testing.TB, n int) (*Engine, []sim.Telemetry, []sim.Config) {
	tb.Helper()
	base := designedController(tb, true)
	rng := rand.New(rand.NewSource(3))
	e := New()
	for i := 0; i < n; i++ {
		c := base.Clone()
		c.Reset()
		c.SetTargets(1+rng.Float64()*3, 1+rng.Float64()*20)
		if _, err := e.Add(c.BatchState()); err != nil {
			tb.Fatal(err)
		}
	}
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{
			IPS:    rng.Float64() * 5,
			PowerW: rng.Float64() * 25,
			Config: sim.MidrangeConfig(),
		}
	}
	return e, tels, make([]sim.Config, n)
}

// TestBatchStepZeroAlloc pins the fused per-loop step at 0 allocs/op:
// stepping a whole fleet must not touch the heap (DESIGN.md §7 zero-alloc
// discipline, extended to the batch path).
func TestBatchStepZeroAlloc(t *testing.T) {
	e, tels, outs := fleetEngine(t, 64)
	if avg := testing.AllocsPerRun(100, func() {
		if err := e.StepAll(tels, outs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("StepAll allocates %.1f objects per fleet step, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.StepLane(0, tels[0])
	}); avg != 0 {
		t.Fatalf("StepLane allocates %.1f objects per step, want 0", avg)
	}
}

// BenchmarkBatchStep measures the fused kernel's per-loop cost over a
// 1024-lane fleet; TestBatchStepZeroAlloc pins it at 0 allocs/op.
func BenchmarkBatchStep(b *testing.B) {
	e, tels, outs := fleetEngine(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerLane := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1024
	b.ReportMetric(nsPerLane, "ns/lanestep")
}

// BenchmarkBatchSupervisedStep measures the fused supervised kernel
// (sanitize → LQG step → monitor EMAs → quantize) per lane over a
// 1024-lane fleet warmed past its grace period;
// TestBatchSupervisedStepZeroAlloc pins it at 0 allocs/op.
func BenchmarkBatchSupervisedStep(b *testing.B) {
	e, tels, outs, cleanup := supAllocFleet(b, 1024, false)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerLane := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1024
	b.ReportMetric(nsPerLane, "ns/lanestep")
}
