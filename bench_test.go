package mimoctl_test

// BenchmarkExpAll times one pass of the full experiment suite. The
// paper-suite workload of bench/run.sh is the end-to-end measurement;
// this benchmark stays for profiling the suite in-process (go test
// -cpuprofile), and bench/paper.go warms designs the way
// warmExpDesigns does. Per-layer micro-benchmarks live next to their
// packages (internal/sim, internal/core, internal/lqg, ...).
//
// Run with: go test -run '^$' -bench=ExpAll -benchmem

import (
	"fmt"
	"testing"

	"mimoctl/internal/experiments"
)

// BenchmarkExpAll times the full experiment suite (every figure/table at
// a reduced epoch budget) at several worker counts. The design cache is
// pre-warmed outside the timer so the benchmark measures run execution,
// not one-time design; Fig7's identifications at dimensions 2, 6 and 8
// are memoized by the first pass, so later passes time none. Output is
// byte-identical at every worker count (the golden suite asserts this);
// the benchmark measures only the wall-clock effect. On a single-CPU
// host the CPU-bound jobs cannot overlap, so expect parity there and
// see BenchmarkRunnerWallClock for the latency-bound scaling proof.
func BenchmarkExpAll(b *testing.B) {
	warmExpDesigns(b)
	for _, workers := range []int{0, 1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			experiments.SetParallelism(workers)
			defer experiments.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				runExpAll(b)
			}
		})
	}
}

// warmExpDesigns resolves every cached design artifact runExpAll needs.
func warmExpDesigns(b *testing.B) {
	b.Helper()
	for _, three := range []bool{false, true} {
		if _, _, err := experiments.DesignedMIMO(three, experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := experiments.DesignedDecoupled(experiments.DefaultSeed); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		if _, err := experiments.BaselineFor(k, false, experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
		if k == 2 {
			if _, err := experiments.BaselineFor(k, true, experiments.DefaultSeed); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runExpAll runs one pass of every experiment at a reduced budget.
func runExpAll(b *testing.B) {
	b.Helper()
	seed := int64(experiments.DefaultSeed)
	if _, err := experiments.Fig6(seed, 600); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig7(seed, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig8(seed, 400); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig9(seed, 1500); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig10(seed, 1500); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig11(seed, 1200); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Fig12(seed, 2000, 250); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.TableEDK(seed, 1200, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.TableEDK(seed, 1200, 3); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.Ablation(seed, 800); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.FaultSweep(seed, 1000); err != nil {
		b.Fatal(err)
	}
}
