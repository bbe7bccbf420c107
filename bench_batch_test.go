package mimoctl_test

// Fleet-scale stepping benchmarks: N independent MIMO control loops
// advanced one epoch each, on the scalar path (one cloned controller
// per loop, dispatched as parallel-runner jobs — the pre-batch fleet
// architecture) versus the batched structure-of-arrays engine
// (internal/batch, one fused kernel pass over all lanes).
//
// Both report ns/lanestep — cost per (loop, epoch) — on identical
// synthetic telemetry streams, so the ratio is the batch speedup.
// Run with: go test -run '^$' -bench=Fleet -benchmem

import (
	"math/rand"
	"testing"

	"mimoctl/internal/batch"
	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
)

const (
	fleetLanes       = 1024
	fleetEpochsPerOp = 16 // epochs each lane advances per benchmark op
)

// sink keeps the scalar jobs' Step results observable so the calls
// cannot be optimized away.
var sink sim.Config

// fleetTelemetry builds per-lane synthetic telemetry. The controllers'
// cost is telemetry-independent (same instruction path for any finite
// values), so fixed inputs measure the steady-state step fairly; the
// Config field only matters before a lane's first step, so neither side
// feeds the chosen configuration back.
func fleetTelemetry(n int) []sim.Telemetry {
	rng := rand.New(rand.NewSource(9))
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{
			IPS:    rng.Float64() * 5,
			PowerW: rng.Float64() * 25,
			Config: sim.MidrangeConfig(),
		}
	}
	return tels
}

// fleetControllers clones the memoized 3-input design into n
// independently targeted loops.
func fleetControllers(b *testing.B, n int) []*core.MIMOController {
	b.Helper()
	base, _, err := experiments.DesignedMIMO(true, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	ctrls := make([]*core.MIMOController, n)
	for i := range ctrls {
		c := base.Clone()
		c.Reset()
		c.SetTargets(1+rng.Float64()*3, 1+rng.Float64()*20)
		ctrls[i] = c
	}
	return ctrls
}

// BenchmarkFleetScalarStep1024 is the baseline: each loop is one runner
// job stepping its own cloned controller, the architecture every
// experiment used before the batch engine.
func BenchmarkFleetScalarStep1024(b *testing.B) {
	ctrls := fleetControllers(b, fleetLanes)
	tels := fleetTelemetry(fleetLanes)
	jobs := make([]runner.Job, fleetLanes)
	for i := range jobs {
		c, tel := ctrls[i], &tels[i]
		jobs[i] = runner.Job{
			Label: "lane",
			Run: func() error {
				for e := 0; e < fleetEpochsPerOp; e++ {
					sink = c.Step(*tel)
				}
				return nil
			},
		}
	}
	workers := runner.DefaultWorkers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.Run(jobs, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLaneStep(b)
}

// BenchmarkFleetBatchStep1024 steps the same fleet through the fused
// structure-of-arrays kernels.
func BenchmarkFleetBatchStep1024(b *testing.B) {
	ctrls := fleetControllers(b, fleetLanes)
	e, err := batch.FromControllers(ctrls)
	if err != nil {
		b.Fatal(err)
	}
	tels := fleetTelemetry(fleetLanes)
	outs := make([]sim.Config, fleetLanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ep := 0; ep < fleetEpochsPerOp; ep++ {
			if err := e.StepAll(tels, outs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportLaneStep(b)
}

func reportLaneStep(b *testing.B) {
	laneSteps := float64(b.N) * fleetLanes * fleetEpochsPerOp
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/laneSteps, "ns/lanestep")
	b.ReportMetric(laneSteps/b.Elapsed().Seconds(), "epochs/sec")
}
