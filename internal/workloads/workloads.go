// Package workloads provides synthetic workload profiles named after the
// SPEC CPU2006 applications the paper evaluates (§VII-A). Each profile
// parameterizes the epoch-level processor model (internal/sim) with the
// application's execution character: intrinsic ILP, memory intensity,
// cache miss-rate curves, branch behaviour, memory-level parallelism,
// and a phase schedule.
//
// The profiles preserve the paper's workload *classes*:
//
//   - the training set {sjeng, gobmk, leslie3d, namd} used for system
//     identification;
//   - the validation pair {h264ref, tonto} used for uncertainty
//     estimation;
//   - the production set (everything else), split into Responsive
//     applications, which can reach the paper's 2.5 BIPS target, and
//     Non-responsive (memory- or ILP-bound) ones, which cannot
//     (§VII-B1, §VIII-D).
package workloads

import (
	"fmt"
	"sort"

	"mimoctl/internal/sim"
)

// Class labels integer vs. floating-point applications.
type Class int

// Workload classes.
const (
	Int Class = iota
	FP
)

func (c Class) String() string {
	if c == Int {
		return "int"
	}
	return "fp"
}

// Phase is one stretch of stable execution behaviour.
type Phase struct {
	// DurationEpochs is the phase length in 50 µs control epochs.
	DurationEpochs int
	Params         sim.PhaseParams
}

// Profile is a synthetic workload implementing sim.Workload. Phases
// cycle; the phase index is reported as the phase ID so a recurring
// phase is recognized (Isci-style phase detection).
type Profile struct {
	name  string
	class Class
	// Phases is the schedule, cycled in order; read-only.
	Phases []Phase
	cycle  int
}

// Name returns the SPEC-style application name.
func (p *Profile) Name() string { return p.name }

// Params implements sim.Workload.
func (p *Profile) Params(epoch int) (sim.PhaseParams, int) {
	e := epoch % p.cycle
	for i := range p.Phases {
		ph := &p.Phases[i]
		if e < ph.DurationEpochs {
			return ph.Params, i
		}
		e -= ph.DurationEpochs
	}
	// Unreachable if cycle is consistent; return the last phase.
	last := len(p.Phases) - 1
	return p.Phases[last].Params, last
}

// phaseSpec scales a base parameter set into one phase.
type phaseSpec struct {
	dur               int
	ilpMul, memMul    float64
	branchMul, actMul float64
}

func makeProfile(name string, class Class, base sim.PhaseParams, specs []phaseSpec) *Profile {
	if len(specs) == 0 {
		specs = []phaseSpec{{dur: 4000, ilpMul: 1, memMul: 1, branchMul: 1, actMul: 1}}
	}
	p := &Profile{name: name, class: class}
	for _, s := range specs {
		params := base
		params.ILP *= s.ilpMul
		params.MemPKI *= s.memMul
		params.L1M1 *= s.memMul
		params.L1Floor *= s.memMul
		params.L2M1 *= s.memMul
		params.L2Floor *= s.memMul
		params.BranchMPKI *= s.branchMul
		params.Activity *= s.actMul
		p.Phases = append(p.Phases, Phase{DurationEpochs: s.dur, Params: params})
		p.cycle += s.dur
	}
	return p
}

// steady is a single-phase schedule.
func steady(dur int) []phaseSpec {
	return []phaseSpec{{dur: dur, ilpMul: 1, memMul: 1, branchMul: 1, actMul: 1}}
}

// twoPhase alternates a nominal and a perturbed phase.
func twoPhase(d1, d2 int, ilp2, mem2 float64) []phaseSpec {
	return []phaseSpec{
		{dur: d1, ilpMul: 1, memMul: 1, branchMul: 1, actMul: 1},
		{dur: d2, ilpMul: ilp2, memMul: mem2, branchMul: 1, actMul: 1},
	}
}

// fourPhase is a richer schedule for phase-heavy applications.
func fourPhase(d int) []phaseSpec {
	return []phaseSpec{
		{dur: d, ilpMul: 1, memMul: 1, branchMul: 1, actMul: 1},
		{dur: d * 3 / 4, ilpMul: 0.85, memMul: 1.3, branchMul: 1.1, actMul: 0.95},
		{dur: d * 5 / 4, ilpMul: 1.1, memMul: 0.8, branchMul: 0.9, actMul: 1.05},
		{dur: d / 2, ilpMul: 0.95, memMul: 1.15, branchMul: 1.05, actMul: 1},
	}
}

// params is a compact constructor for sim.PhaseParams. robDemand is the
// ROB size at which the workload has extracted most of its ILP/MLP.
func params(ilp, memPKI, l1m1, l1a, l1fl, l2m1, l2a, l2fl, br, mlp, robDemand float64) sim.PhaseParams {
	return sim.PhaseParams{
		ILP: ilp, MemPKI: memPKI,
		L1M1: l1m1, L1Alpha: l1a, L1Floor: l1fl,
		L2M1: l2m1, L2Alpha: l2a, L2Floor: l2fl,
		BranchMPKI: br, MLPMax: mlp, ROBDemand: robDemand, Activity: 1,
	}
}

// registry holds every profile, keyed by name.
var registry = map[string]*Profile{}

func register(p *Profile) *Profile {
	if _, dup := registry[p.name]; dup {
		panic(fmt.Sprintf("workloads: duplicate profile %q", p.name))
	}
	registry[p.name] = p
	return p
}

// The profiles. Miss-curve parameters are hand-set in the power-law form
// the processor model evaluates (floor + (m1 - floor)·ways^-alpha); sim's
// tests hold that form against its set-associative cache simulator.
// Per-application values encode each benchmark's published character
// (memory-boundedness, branchiness, ILP), scaled to the modeled
// A15-class core.
var (
	// ---- Training set (§VII-A) ----
	sjeng    = register(makeProfile("sjeng", Int, params(2.6, 240, 18, 0.8, 1.5, 2.0, 1.0, 0.15, 9, 2.5, 22), twoPhase(4000, 3000, 0.92, 1.2)))
	gobmk    = register(makeProfile("gobmk", Int, params(2.4, 260, 22, 0.8, 2.0, 2.5, 1.0, 0.25, 11, 2.4, 20), twoPhase(3500, 2500, 0.9, 1.15)))
	leslie3d = register(makeProfile("leslie3d", FP, params(2.9, 330, 45, 0.6, 6.0, 8.0, 0.8, 1.6, 1.5, 3.5, 55), twoPhase(5000, 4000, 1.05, 1.25)))
	namd     = register(makeProfile("namd", FP, params(3.1, 250, 14, 1.0, 1.2, 1.5, 1.2, 0.10, 1.2, 3.0, 34), steady(6000)))

	// ---- Responsive production applications ----
	astar   = register(makeProfile("astar", Int, params(3.1, 280, 22, 0.7, 1.8, 2.5, 1.0, 0.30, 4, 3.4, 30), fourPhase(3000)))
	cactus  = register(makeProfile("cactusADM", FP, params(3.05, 290, 20, 0.7, 2.2, 2.2, 0.9, 0.35, 1.0, 3.5, 40), twoPhase(6000, 3000, 0.95, 1.2)))
	gamess  = register(makeProfile("gamess", FP, params(3.0, 230, 10, 1.0, 1.0, 1.2, 1.2, 0.08, 1.5, 2.8, 26), steady(5000)))
	gromacs = register(makeProfile("gromacs", FP, params(2.8, 260, 16, 0.9, 1.8, 2.0, 1.1, 0.20, 2.0, 2.9, 30), twoPhase(4500, 3500, 1.08, 0.85)))
	milc    = register(makeProfile("milc", FP, params(3.05, 320, 24, 0.8, 2.5, 4.5, 1.3, 0.45, 2.0, 3.6, 52), fourPhase(3500)))
	povray  = register(makeProfile("povray", FP, params(2.7, 220, 8, 1.0, 0.8, 0.8, 1.2, 0.06, 4, 2.6, 24), steady(4500)))
	sphinx3 = register(makeProfile("sphinx3", FP, params(3.0, 290, 18, 0.8, 2.0, 2.4, 1.1, 0.30, 3, 3.3, 36), twoPhase(4000, 3000, 0.9, 1.3)))
	tonto   = register(makeProfile("tonto", FP, params(2.7, 250, 15, 0.9, 1.6, 2.2, 1.1, 0.25, 2.5, 2.8, 30), twoPhase(5000, 2500, 1.05, 1.15)))
	wrf     = register(makeProfile("wrf", FP, params(3.0, 280, 16, 0.8, 1.5, 2.2, 1.0, 0.25, 2.2, 3.4, 38), fourPhase(4000)))

	// ---- Non-responsive production applications (§VIII-D): cannot
	// reach 2.5 BIPS because of memory-boundedness or limited ILP. ----
	bzip2      = register(makeProfile("bzip2", Int, params(2.2, 330, 40, 0.6, 8.0, 7.0, 0.7, 4.00, 8, 2.3, 26), twoPhase(3000, 3000, 0.95, 1.2)))
	gcc        = register(makeProfile("gcc", Int, params(2.0, 320, 45, 0.6, 9.0, 6.0, 0.7, 3.00, 10, 2.2, 22), fourPhase(2500)))
	hmmer      = register(makeProfile("hmmer", Int, params(1.6, 300, 12, 0.9, 1.5, 1.8, 1.0, 1.50, 4, 2.0, 16), steady(4000)))
	h264ref    = register(makeProfile("h264ref", Int, params(1.8, 280, 20, 0.8, 3.0, 3.0, 0.9, 1.80, 6, 2.2, 20), twoPhase(3500, 2500, 0.92, 1.15)))
	libquantum = register(makeProfile("libquantum", Int, params(2.5, 380, 70, 0.3, 40.0, 25.0, 0.2, 14.00, 2, 3.5, 60), steady(5000)))
	mcf        = register(makeProfile("mcf", Int, params(1.4, 450, 110, 0.35, 45.0, 55.0, 0.3, 30.00, 10, 2.0, 55), twoPhase(4000, 3000, 1.0, 1.2)))
	omnetpp    = register(makeProfile("omnetpp", Int, params(2.0, 360, 60, 0.5, 18.0, 20.0, 0.5, 9.00, 9, 1.8, 24), steady(4500)))
	perlbench  = register(makeProfile("perlbench", Int, params(1.9, 300, 25, 0.7, 4.0, 4.0, 0.8, 2.00, 12, 2.1, 18), fourPhase(2800)))
	xalancbmk  = register(makeProfile("Xalan", Int, params(2.1, 340, 45, 0.6, 10.0, 12.0, 0.6, 5.00, 9, 2.0, 26), twoPhase(3200, 2800, 0.9, 1.25)))
	bwaves     = register(makeProfile("bwaves", FP, params(2.8, 360, 60, 0.4, 25.0, 22.0, 0.3, 12.00, 1.0, 3.5, 58), steady(6000)))
	dealII     = register(makeProfile("dealII", FP, params(2.4, 310, 30, 0.7, 5.0, 14.0, 1.1, 6.00, 3, 2.5, 34), twoPhase(4500, 3000, 0.95, 1.2)))
	gems       = register(makeProfile("GemsFDTD", FP, params(2.6, 370, 65, 0.4, 28.0, 26.0, 0.3, 14.00, 1.2, 3.3, 56), steady(5500)))
	lbm        = register(makeProfile("lbm", FP, params(2.7, 400, 75, 0.3, 45.0, 32.0, 0.2, 20.00, 0.8, 3.6, 62), steady(6000)))
	soplex     = register(makeProfile("soplex", FP, params(2.3, 340, 50, 0.6, 12.0, 16.0, 0.6, 8.00, 5, 2.4, 42), twoPhase(3800, 3200, 0.92, 1.2)))
)

// trainingNames is the paper's training set.
var trainingNames = []string{"sjeng", "gobmk", "leslie3d", "namd"}

// validationNames is the paper's uncertainty-validation pair (§VI-A2).
var validationNames = []string{"h264ref", "tonto"}

// nonResponsiveNames is the paper's Non-responsive list (§VIII-D).
var nonResponsiveNames = []string{
	"bzip2", "gcc", "hmmer", "h264ref", "libquantum", "mcf", "omnetpp",
	"perlbench", "Xalan", "bwaves", "dealII", "GemsFDTD", "lbm", "soplex",
}

// ByName returns the named profile.
func ByName(name string) (*Profile, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return p, nil
}

// All returns every profile sorted by name.
func All() []*Profile {
	out := make([]*Profile, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TrainingSet returns the identification training applications.
func TrainingSet() []*Profile { return byNames(trainingNames) }

// ValidationSet returns the uncertainty-validation applications.
func ValidationSet() []*Profile { return byNames(validationNames) }

// ProductionSet returns every application outside the training set.
func ProductionSet() []*Profile {
	train := map[string]bool{}
	for _, n := range trainingNames {
		train[n] = true
	}
	var out []*Profile
	for _, p := range All() {
		if !train[p.name] {
			out = append(out, p)
		}
	}
	return out
}

// NonResponsive reports whether the named application is in the paper's
// non-responsive list.
func NonResponsive(name string) bool {
	for _, n := range nonResponsiveNames {
		if n == name {
			return true
		}
	}
	return false
}

// ResponsiveSet returns the production applications that can respond to
// the 2.5 BIPS target.
func ResponsiveSet() []*Profile {
	var out []*Profile
	for _, p := range ProductionSet() {
		if !NonResponsive(p.name) {
			out = append(out, p)
		}
	}
	return out
}

func byNames(names []string) []*Profile {
	out := make([]*Profile, len(names))
	for i, n := range names {
		p, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// unused variable silencers for profiles referenced only via the registry.
var _ = []*Profile{
	sjeng, gobmk, leslie3d, namd, astar, cactus, gamess, gromacs, milc,
	povray, sphinx3, tonto, wrf, bzip2, gcc, hmmer, h264ref, libquantum,
	mcf, omnetpp, perlbench, xalancbmk, bwaves, dealII, gems, lbm, soplex,
}
