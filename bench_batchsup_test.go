package mimoctl_test

// Supervised fleet stepping benchmarks: N supervised control loops
// (sanitize → inner LQG step → divergence monitoring → quantize)
// advanced one epoch each, on the scalar path (one supervisor.Supervised
// per loop dispatched as parallel-runner jobs) versus the batched
// supervised lane tier (internal/batch.SupEngine, one fused pass over
// the supervisor + Kalman/LQG structure-of-arrays).
//
// Both sides run monitor-less engaged supervisors past their grace
// period — the nominal steady state where the alarm EMAs are live — on
// identical telemetry with targets pinned to each lane's operating
// point so no lane ever leaves the fast path. Both report ns/lanestep.
// Run with: go test -run '^$' -bench=FleetSupervised -benchmem

import (
	"math/rand"
	"testing"

	"mimoctl/internal/batch"
	"mimoctl/internal/experiments"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
)

// supFleetWarmEpochs steps each lane past the grace period before
// timing starts, so the measured path includes the innovation and
// divergence EMA evaluations.
const supFleetWarmEpochs = 100

// fleetSupTelemetry draws per-lane operating points inside the default
// plausibility bounds; targets are pinned to these exact points so the
// tracking-error EMA settles near zero and every lane stays nominal.
func fleetSupTelemetry(n int) []sim.Telemetry {
	rng := rand.New(rand.NewSource(11))
	tels := make([]sim.Telemetry, n)
	for i := range tels {
		tels[i] = sim.Telemetry{
			IPS:    1 + rng.Float64()*2,
			PowerW: 4 + rng.Float64()*4,
			Config: sim.MidrangeConfig(),
		}
	}
	return tels
}

// fleetSupervised clones the memoized 3-input design into n supervised
// loops targeted at their own telemetry.
func fleetSupervised(b *testing.B, tels []sim.Telemetry) []*supervisor.Supervised {
	b.Helper()
	base, _, err := experiments.DesignedMIMO(true, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	sups := make([]*supervisor.Supervised, len(tels))
	for i := range sups {
		c := base.Clone()
		c.Reset()
		s := supervisor.New(c, supervisor.Options{GraceEpochs: 60})
		s.SetTargets(tels[i].IPS, tels[i].PowerW)
		sups[i] = s
	}
	return sups
}

// BenchmarkFleetSupervisedScalar1024 is the baseline: each supervised
// loop is one runner job, the architecture the fault sweeps used before
// the supervised lane tier.
func BenchmarkFleetSupervisedScalar1024(b *testing.B) {
	tels := fleetSupTelemetry(fleetLanes)
	sups := fleetSupervised(b, tels)
	for w := 0; w < supFleetWarmEpochs; w++ {
		for i, s := range sups {
			sink = s.Step(tels[i])
		}
	}
	jobs := make([]runner.Job, fleetLanes)
	for i := range jobs {
		s, tel := sups[i], &tels[i]
		jobs[i] = runner.Job{
			Label: "lane",
			Run: func() error {
				for e := 0; e < fleetEpochsPerOp; e++ {
					sink = s.Step(*tel)
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

// BenchmarkFleetSupervisedBatch1024 steps the same supervised fleet
// through the fused SoA kernel.
func BenchmarkFleetSupervisedBatch1024(b *testing.B) {
	tels := fleetSupTelemetry(fleetLanes)
	sups := fleetSupervised(b, tels)
	e, err := batch.FromSupervisedFleet(sups)
	if err != nil {
		b.Fatal(err)
	}
	outs := make([]sim.Config, fleetLanes)
	for w := 0; w < supFleetWarmEpochs; w++ {
		if err := e.StepAll(tels, outs); err != nil {
			b.Fatal(err)
		}
	}
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
	for i := 0; i < fleetLanes; i++ {
		if e.Parked(i) {
			b.Fatalf("lane %d left the fast path during the benchmark", i)
		}
	}
	reportLaneStep(b)
}
