package experiments

import (
	"sync/atomic"

	"mimoctl/internal/runner"
)

// Parallel execution of experiment plans. Every Fig*/Table*/sweep
// function decomposes into independent jobs executed through
// internal/runner, one per (controller, workload, seed) or, where a
// row of controllers shares a plant stream, one per (workload, seed)
// stepping the row on one lockstep bank; this knob sets the worker
// count they all use.
//
// Determinism contract: each job owns its controllers (Clones of the
// memoized designs, or freshly constructed ones), its processor or
// bank, and RNGs seeded from the job's identity — never from worker
// order — and writes only its own pre-assigned result slots, which the
// reduce step reads in canonical order. Output is therefore
// byte-identical for any worker count; the golden-regression suite
// enforces this.

// parallelism is the configured worker count; 0 (the default) runs
// every plan serially on the calling goroutine, the seed behaviour.
var parallelism atomic.Int32

// SetParallelism sets the worker count used by every experiment plan:
// 0 (or negative) = serial, n >= 1 = a pool of n workers. The CLI's
// -parallel flag lands here; runner.DefaultWorkers() is one worker per
// CPU.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the configured worker count (0 = serial).
func Parallelism() int { return int(parallelism.Load()) }

// runPlan executes one experiment's job plan with the configured
// parallelism.
func runPlan(jobs []runner.Job) error {
	return runner.Run(jobs, Parallelism(), harnessRegistry())
}
