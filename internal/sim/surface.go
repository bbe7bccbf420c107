package sim

import "math"

// The plant is only ever evaluated at its discrete knob levels (Table
// III), and every transcendental the interval and power models take
// at a knob level depends on nothing but that level and the phase
// parameters. Those terms are therefore tabulated — once per process
// for the workload-independent ones, once per phase for the rest —
// instead of being recomputed every 50 µs epoch. Each entry is the
// direct model's own expression on the same inputs and the arithmetic
// around it keeps the direct model's order, so a tabulated epoch is
// bit-identical to a direct one (the reference lives in
// reference_test.go; TestSurfaceMatchesReference and
// FuzzSurfaceMatchesReference compare them by bit pattern).

// Workload-independent knob-level terms, built once at init.
var (
	// freqVoltage[i] is Voltage(FreqSettingsGHz[i]).
	freqVoltage = func() (t [numFreqLevels]float64) {
		for i, f := range FreqSettingsGHz {
			t[i] = Voltage(f)
		}
		return t
	}()
	// robEnergyScale[i] is pow(ROBSettings[i]/128, 0.7), the sublinear
	// growth of per-instruction window energy with enabled entries.
	robEnergyScale = func() (t [numROBLevels]float64) {
		for i, r := range ROBSettings {
			t[i] = pow(float64(r)/128.0, 0.7)
		}
		return t
	}()
)

// surface is the interval model's response surface for one phase,
// tabulated over the discrete knob levels. It has two halves, each
// rebuilt by refresh only when the PhaseParams fields it reads change
// (compared by bit pattern): the ROB half is keyed on ROBDemand, the
// miss-curve half on the six L1*/L2* fields. An analytic workload
// changes them only at a phase boundary; the tests' trace-driven
// processor rewrites the miss curve every epoch and never rebuilds the
// ROB half.
type surface struct {
	valid bool // both halves have been built at least once

	robKey uint64
	// robSat[i] is 1 - exp(-ROBSettings[i]/demand): the share of the
	// workload's ILP and MLP the window exposes.
	robSat [numROBLevels]float64
	// mlpSat is 1 - exp(-mlpROBRef/demand), the MLP normalizer.
	mlpSat float64

	missKey [6]uint64
	// l1MPKI[i] and l2MPKI[i] are the miss curves at CacheSettings[i].
	l1MPKI, l2MPKI [numCacheLevels]float64
}

// refresh makes s describe the phase p, rebuilding only the halves
// whose key changed.
func (s *surface) refresh(p *PhaseParams) {
	if k := math.Float64bits(p.ROBDemand); !s.valid || k != s.robKey {
		s.robKey = k
		demand := p.ROBDemand
		if demand <= 0 {
			demand = defaultROBDemand
		}
		for i, r := range ROBSettings {
			s.robSat[i] = 1 - math.Exp(-float64(r)/demand)
		}
		s.mlpSat = 1 - math.Exp(-mlpROBRef/demand)
	}
	k := [6]uint64{
		math.Float64bits(p.L1M1), math.Float64bits(p.L1Alpha), math.Float64bits(p.L1Floor),
		math.Float64bits(p.L2M1), math.Float64bits(p.L2Alpha), math.Float64bits(p.L2Floor),
	}
	if !s.valid || k != s.missKey {
		s.missKey = k
		for i, cs := range CacheSettings {
			s.l1MPKI[i] = missCurve(p.L1M1, p.L1Alpha, p.L1Floor, cs[1])
			s.l2MPKI[i] = missCurve(p.L2M1, p.L2Alpha, p.L2Floor, cs[0])
		}
	}
	s.valid = true
}
