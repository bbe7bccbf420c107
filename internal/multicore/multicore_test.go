package multicore

import (
	"math"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// buildChip assembles a 4-core chip mixing compute-friendly and
// memory-bound workloads, each core driven by its own copy of the
// standard MIMO controller design.
func buildChip(t *testing.T, policy Policy, budget float64) *Chip {
	t.Helper()
	names := []string{"gamess", "namd", "mcf", "milc"}
	cores := make([]*Core, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		// Each core needs its own controller instance (controllers hold
		// runtime state); re-run the cached design per core via a fresh
		// LQG wrapper.
		mimo, _, err := core.DesignMIMO(core.DesignSpec{
			Training:     experiments.TrainingWorkloads(),
			Seed:         experiments.DefaultSeed,
			EpochsPerApp: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = &Core{Proc: proc, Ctrl: mimo, IPSGoal: 2.5}
	}
	chip, err := New(cores, budget, policy)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestChipValidation(t *testing.T) {
	if _, err := New(nil, 8, EqualShare); err == nil {
		t.Fatal("expected empty-cores error")
	}
	if _, err := New([]*Core{{}}, 8, EqualShare); err == nil {
		t.Fatal("expected missing-processor error")
	}
	w, _ := workloads.ByName("namd")
	proc, _ := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 1)
	if _, err := New([]*Core{{Proc: proc, Ctrl: experiments.NewHeuristicTracker(false)}}, 0, EqualShare); err == nil {
		t.Fatal("expected budget error")
	}
	if EqualShare.String() == DemandProportional.String() {
		t.Fatal("policy strings")
	}
}

func TestChipRespectsBudget(t *testing.T) {
	budget := 6.0
	chip := buildChip(t, DemandProportional, budget)
	trace, err := chip.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	var sumP float64
	n := 0
	for _, tel := range trace[1000:] {
		sumP += tel.TotalPower
		n++
	}
	avg := sumP / float64(n)
	if avg > budget*1.10 {
		t.Fatalf("chip power %.2f W exceeds budget %.2f W by more than 10%%", avg, budget)
	}
	if avg < budget*0.5 {
		t.Fatalf("chip power %.2f W implausibly below budget %.2f W", avg, budget)
	}
	// Allocations always sum to (approximately) the budget.
	allocs := chip.Allocations()
	var total float64
	for _, a := range allocs {
		if a < chip.MinCoreW-1e-9 {
			t.Fatalf("allocation %v below the floor", allocs)
		}
		total += a
	}
	if math.Abs(total-budget) > 0.01*budget {
		t.Fatalf("allocations %v sum to %.2f, budget %.2f", allocs, total, budget)
	}
}

func TestDemandAllocatorFavorsCapableCores(t *testing.T) {
	chip := buildChip(t, DemandProportional, 6.0)
	if _, err := chip.Run(3000); err != nil {
		t.Fatal(err)
	}
	allocs := chip.Allocations()
	// Cores 0-1 run compute-friendly apps (gamess, namd) that convert
	// power into IPS; cores 2-3 run memory-bound apps (mcf, milc — mcf
	// especially) that cannot. The allocator must not starve the capable
	// cores below the memory-bound ones... mcf's shortfall stays large
	// but its efficiency is terrible, so weight = shortfall x efficiency
	// must hand compute cores at least comparable power.
	computeAvg := (allocs[0] + allocs[1]) / 2
	mcfAlloc := allocs[2]
	if computeAvg < mcfAlloc*0.8 {
		t.Fatalf("compute cores got %.2f W vs mcf %.2f W: allocator starved the capable cores (allocs %v)",
			computeAvg, mcfAlloc, allocs)
	}
}

func TestCoordinationBeatsEqualShare(t *testing.T) {
	// The coordinated allocator must deliver at least as much total IPS
	// as the uncoordinated equal split at the same chip budget.
	run := func(policy Policy) float64 {
		chip := buildChip(t, policy, 6.0)
		trace, err := chip.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, tel := range trace[1500:] {
			sum += tel.TotalIPS
			n++
		}
		return sum / float64(n)
	}
	coordinated := run(DemandProportional)
	equal := run(EqualShare)
	if coordinated < equal*0.97 {
		t.Fatalf("coordinated %.3f BIPS clearly below equal-share %.3f BIPS", coordinated, equal)
	}
}

func TestChipTelemetryShape(t *testing.T) {
	chip := buildChip(t, EqualShare, 8.0)
	tel, err := chip.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(tel.PerCore) != 4 {
		t.Fatalf("%d per-core entries", len(tel.PerCore))
	}
	var sum float64
	for _, pc := range tel.PerCore {
		sum += pc.TrueIPS
	}
	if math.Abs(sum-tel.TotalIPS) > 1e-9 {
		t.Fatal("TotalIPS does not sum the cores")
	}
}
