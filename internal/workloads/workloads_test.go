package workloads

import (
	"testing"

	"mimoctl/internal/sim"
)

// NonResponsiveSet returns the production applications that cannot.
func NonResponsiveSet() []*Profile {
	var out []*Profile
	for _, p := range ProductionSet() {
		if NonResponsive(p.name) {
			out = append(out, p)
		}
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("got %d profiles, want 27 (SPEC CPU2006 minus zeusmp and calculix)", len(all))
	}
	if len(TrainingSet()) != 4 {
		t.Fatalf("training set size %d", len(TrainingSet()))
	}
	if len(ProductionSet()) != 23 {
		t.Fatalf("production set size %d", len(ProductionSet()))
	}
	if len(NonResponsiveSet()) != 14 {
		t.Fatalf("non-responsive size %d, want 14 (paper §VIII-D)", len(NonResponsiveSet()))
	}
	if len(ResponsiveSet()) != 9 {
		t.Fatalf("responsive size %d", len(ResponsiveSet()))
	}
	if len(ValidationSet()) != 2 {
		t.Fatalf("validation size %d", len(ValidationSet()))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "namd" || p.class != FP {
		t.Fatalf("namd lookup wrong: %v %v", p.Name(), p.class)
	}
	if _, err := ByName("zeusmp"); err == nil {
		t.Fatal("zeusmp should be absent (unsupported in the paper too)")
	}
	if Int.String() != "int" || FP.String() != "fp" {
		t.Fatal("class strings")
	}
}

func TestSetsAreDisjointAndCoverProduction(t *testing.T) {
	train := map[string]bool{}
	for _, p := range TrainingSet() {
		train[p.Name()] = true
	}
	for _, p := range ProductionSet() {
		if train[p.Name()] {
			t.Fatalf("%s in both training and production", p.Name())
		}
	}
	resp := map[string]bool{}
	for _, p := range ResponsiveSet() {
		resp[p.Name()] = true
	}
	for _, p := range NonResponsiveSet() {
		if resp[p.Name()] {
			t.Fatalf("%s in both responsive and non-responsive", p.Name())
		}
	}
	if len(ResponsiveSet())+len(NonResponsiveSet()) != len(ProductionSet()) {
		t.Fatal("responsive/non-responsive do not partition production")
	}
}

func TestPhaseScheduleCyclesAndIDs(t *testing.T) {
	p, err := ByName("astar") // four-phase profile
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 4 {
		t.Fatalf("astar has %d phases", len(p.Phases))
	}
	// Walk two full cycles; phase IDs must go 0..3,0..3 and params must
	// repeat exactly.
	cycle := 0
	for _, ph := range p.Phases {
		cycle += ph.DurationEpochs
	}
	seen := map[int]bool{}
	for e := 0; e < 2*cycle; e++ {
		params, id := p.Params(e)
		if id < 0 || id >= 4 {
			t.Fatalf("phase id %d out of range", id)
		}
		seen[id] = true
		p2, id2 := p.Params(e + cycle)
		if id2 != id || p2 != params {
			t.Fatalf("epoch %d: schedule does not repeat with period %d", e, cycle)
		}
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("phase %d never active", i)
		}
	}
}

// maxBIPS finds the best achievable BIPS over the whole configuration
// space for the workload's nominal (phase-0) parameters: each
// configuration's noiseless epoch after the actuation transients have
// settled.
func maxBIPS(t *testing.T, p *Profile) float64 {
	var cfgs []sim.Config
	for fi := range sim.FreqSettingsGHz {
		for ci := range sim.CacheSettings {
			for ri := range sim.ROBSettings {
				cfgs = append(cfgs, sim.Config{FreqIdx: fi, CacheIdx: ci, ROBIdx: ri})
			}
		}
	}
	totals, err := sim.StaticSweep(p, sim.ProcessorOptions{Deterministic: true}, 1, cfgs, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, tot := range totals {
		if bips := tot.Instructions / tot.Seconds / 1e9; bips > best {
			best = bips
		}
	}
	return best
}

func TestResponsiveCanReachTarget(t *testing.T) {
	for _, p := range ResponsiveSet() {
		if got := maxBIPS(t, p); got < 2.5 {
			t.Errorf("%s peaks at %.2f BIPS; responsive apps must reach 2.5", p.Name(), got)
		}
	}
	// The training set is also used to derive a reachable target.
	for _, p := range TrainingSet() {
		if got := maxBIPS(t, p); got < 2.2 {
			t.Errorf("%s (training) peaks at %.2f BIPS", p.Name(), got)
		}
	}
}

func TestNonResponsiveCannotReachTarget(t *testing.T) {
	for _, p := range NonResponsiveSet() {
		if got := maxBIPS(t, p); got >= 2.5 {
			t.Errorf("%s reaches %.2f BIPS; non-responsive apps must stay below 2.5", p.Name(), got)
		}
	}
}

func TestParamsArePhysicallySane(t *testing.T) {
	for _, p := range All() {
		for i, ph := range p.Phases {
			q := ph.Params
			if q.ILP <= 0 || q.ILP > 4 {
				t.Errorf("%s phase %d: ILP %v", p.Name(), i, q.ILP)
			}
			if q.MemPKI <= 0 || q.MemPKI > 600 {
				t.Errorf("%s phase %d: MemPKI %v", p.Name(), i, q.MemPKI)
			}
			if q.L1M1 < q.L1Floor || q.L2M1 < q.L2Floor {
				t.Errorf("%s phase %d: miss curve m1 below floor", p.Name(), i)
			}
			if q.L2M1 > q.L1M1 {
				t.Errorf("%s phase %d: L2 misses exceed L1 misses at 1 way", p.Name(), i)
			}
			if q.MLPMax < 1 || q.MLPMax > 5 {
				t.Errorf("%s phase %d: MLPMax %v", p.Name(), i, q.MLPMax)
			}
			if q.Activity <= 0 {
				t.Errorf("%s phase %d: activity %v", p.Name(), i, q.Activity)
			}
			if ph.DurationEpochs <= 0 {
				t.Errorf("%s phase %d: duration %d", p.Name(), i, ph.DurationEpochs)
			}
		}
	}
}

func TestProfilesDriveProcessor(t *testing.T) {
	// Every profile must run on the processor and produce sane outputs.
	for _, p := range All() {
		proc, err := sim.NewProcessor(p, sim.DefaultProcessorOptions(), 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			tel := proc.Step()
			if tel.TrueIPS <= 0 || tel.TrueIPS > 8 {
				t.Fatalf("%s: IPS %v implausible", p.Name(), tel.TrueIPS)
			}
			if tel.TruePowerW <= 0 || tel.TruePowerW > 8 {
				t.Fatalf("%s: power %v implausible", p.Name(), tel.TruePowerW)
			}
		}
	}
}
