package sim

import "math"

// Analytic power model in the spirit of McPAT/CACTI (which the paper
// obtains power estimates from): per-instruction dynamic energies scaled
// by V²·activity, per-structure dynamic energy scaled with enabled
// capacity, and leakage proportional to powered-on area, voltage, and a
// thermal factor.

// Power-model coefficients, chosen so the modeled A15-class core spans
// roughly 0.4 W (0.5 GHz, minimum structures, idle workload) to 4+ W
// (2 GHz, everything enabled, high activity), with ≈2 W at the paper's
// baseline configuration.
const (
	// vNom normalizes voltage scaling of dynamic energy.
	vNom = 1.0
	// epiCoreNJ is core dynamic energy per instruction at vNom (nJ),
	// excluding caches and ROB.
	epiCoreNJ = 0.36
	// epiROBNJ is the additional per-instruction window energy with a
	// full 128-entry ROB; scales sublinearly with enabled entries.
	epiROBNJ = 0.22
	// eL1AccessNJ / eL2AccessNJ are per-access energies at full ways.
	eL1AccessNJ = 0.05
	eL2AccessNJ = 0.35
	// eMemAccessNJ is the on-chip cost per memory access (controller).
	eMemAccessNJ = 1.8
	// Leakage at nominal voltage and reference temperature (W).
	leakCoreW     = 0.20
	leakL1PerWayW = 0.014
	leakL2PerWayW = 0.034
	leakROBPer16W = 0.012
	// clockPowerW is uncore/clock-tree power per GHz at vNom².
	clockPowerW = 0.11
	// Thermal model: first-order RC node.
	tempAmbientC    = 40.0
	thermalResKPerW = 12.0
	thermalTauS     = 0.02
	// leakTempCoeff is the fractional leakage increase per °C above the
	// reference temperature.
	leakTempCoeff = 0.012
	leakTempRefC  = 45.0
)

// PowerResult reports one epoch of the power model.
type PowerResult struct {
	TotalW   float64
	DynamicW float64
	LeakageW float64
	ClockW   float64
	// EnergyJ consumed this epoch.
	EnergyJ float64
}

// powerInto writes the power model into dst, reading the voltage and
// the window energy scaling of cfg's levels from the package tables.
func powerInto(dst *PowerResult, p *PhaseParams, cfg Config, perf *PerfResult, tempC, activity float64) {
	f := cfg.FreqGHz()
	v := freqVoltage[cfg.FreqIdx]
	vScale := (v / vNom) * (v / vNom)

	// Instruction throughput in G instr/s; nJ/instr × Ginstr/s = W.
	gips := perf.BIPS

	epi := epiCoreNJ + epiROBNJ*robEnergyScale[cfg.ROBIdx]
	dynCore := epi * vScale * activity * gips

	// Cache dynamic power: accesses per second × energy per access.
	// Access energy grows with enabled ways (more comparators/arrays).
	l1AccPerKI := p.MemPKI
	l2AccPerKI := perf.L1MPKI
	memAccPerKI := perf.L2MPKI
	eL1 := eL1AccessNJ * (0.6 + 0.4*float64(cfg.L1Ways())/4.0)
	eL2 := eL2AccessNJ * (0.5 + 0.5*float64(cfg.L2Ways())/8.0)
	dynCache := vScale * activity * gips / 1000 *
		(l1AccPerKI*eL1 + l2AccPerKI*eL2 + memAccPerKI*eMemAccessNJ)

	dynamic := dynCore + dynCache

	// Leakage: powered structures × voltage × thermal factor.
	thermal := 1 + leakTempCoeff*(tempC-leakTempRefC)
	if thermal < 0.5 {
		thermal = 0.5
	}
	leak := (leakCoreW +
		leakL1PerWayW*float64(cfg.L1Ways()) +
		leakL2PerWayW*float64(cfg.L2Ways()) +
		leakROBPer16W*float64(cfg.ROBEntries())/16.0) * (v / vNom) * thermal

	clock := clockPowerW * f * vScale

	total := dynamic + leak + clock
	dst.TotalW, dst.DynamicW, dst.LeakageW, dst.ClockW = total, dynamic, leak, clock
	dst.EnergyJ = total * EpochSeconds
}

// stepTemperature advances the first-order thermal state by one epoch
// under the given power draw.
func stepTemperature(tempC, powerW float64) float64 {
	target := tempAmbientC + thermalResKPerW*powerW
	alpha := EpochSeconds / thermalTauS
	return tempC + alpha*(target-tempC)
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
