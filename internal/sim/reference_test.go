package sim

import (
	"fmt"
	"math"
	"reflect"
)

// The reference plant: the direct (untabulated) interval and power
// models and the epoch step over them, which evaluate every knob-level
// transcendental per call. The differential tests compare the
// tabulated plant against exactly this arithmetic, so these bodies are
// not to be edited; the steppers take the processor as an argument. A
// reference stepper runs on its own Processor (or TraceProcessor)
// built with the same seed, so its random stream is its own; it never
// reads that processor's surface. The telemetry seam of stepWithParams
// is left out: it observes, it does not change the step.

// refStep is Processor.Step over the direct model.
func refStep(p *Processor) Telemetry {
	params, phaseID := p.workload.Params(p.epoch)
	return refStepCore(p, params, phaseID)
}

// refStepCore is the uninstrumented epoch step.
func refStepCore(p *Processor, params PhaseParams, phaseID int) Telemetry {
	// Stochastic workload fluctuation (AR(1) in the log domain) applied
	// to ILP, memory intensity, and activity.
	mult := 1.0
	if !p.opts.Deterministic && p.opts.PhaseNoiseStd > 0 {
		rho := phaseNoiseRho
		p.arState = rho*p.arState + p.opts.PhaseNoiseStd*math.Sqrt(1-rho*rho)*p.rng.NormFloat64()
		mult = math.Exp(p.arState)
	}
	params.ILP *= mult
	params.MemPKI *= mult
	params.Activity *= mult

	stall := 0.0
	if p.dvfsStall {
		stall = DVFSTransitionSeconds / EpochSeconds
		p.dvfsStall = false
	}
	perf := refEvalPerf(params, p.cfg, p.warmL1, p.warmL2, stall)
	pw := refEvalPower(params, p.cfg, perf, p.tempC, params.Activity)

	// Advance internal states.
	p.tempC = stepTemperature(p.tempC, pw.TotalW)
	// Warm-up transients decay as the resized arrays refill: the small
	// L1 recovers in a few epochs; refilling the 256 KB L2 takes on the
	// order of ten epochs at realistic fill bandwidth. These multi-epoch
	// transients are the plant dynamics that make model order matter
	// (paper Fig. 7).
	p.warmL1 *= 0.60
	p.warmL2 *= 0.88
	if p.warmL1 < 1e-4 {
		p.warmL1 = 0
	}
	if p.warmL2 < 1e-4 {
		p.warmL2 = 0
	}

	t := Telemetry{
		Epoch:        p.epoch,
		TrueIPS:      perf.BIPS,
		TruePowerW:   pw.TotalW,
		TempC:        p.tempC,
		Instructions: perf.Instructions,
		EnergyJ:      pw.EnergyJ,
		L1MPKI:       perf.L1MPKI,
		L2MPKI:       perf.L2MPKI,
		PhaseID:      phaseID,
		Config:       p.cfg,
	}
	t.IPS = t.TrueIPS
	t.PowerW = t.TruePowerW
	if !p.opts.Deterministic {
		t.IPS *= 1 + sensorIPSStd*p.rng.NormFloat64()
		t.PowerW *= 1 + sensorPowerStd*p.rng.NormFloat64()
		if t.IPS < 0 {
			t.IPS = 0
		}
		if t.PowerW < 0 {
			t.PowerW = 0
		}
	}

	p.totalEnergyJ += pw.EnergyJ
	p.totalInstr += perf.Instructions
	p.totalSeconds += EpochSeconds
	p.epoch++
	return t
}

// refTraceStep executes one epoch: estimate the access count from the
// last IPC, replay a (sampled) address stream, and evaluate the
// interval model with the measured miss rates.
func refTraceStep(p *TraceProcessor) Telemetry {
	params, phaseID := p.inner.workload.Params(p.inner.epoch)
	if phaseID != p.lastPhase {
		p.gen = NewTraceGen(p.prov.TraceSpec(phaseID), p.rng)
		p.lastPhase = phaseID
	}
	// Estimated work this epoch.
	f := p.inner.cfg.FreqGHz()
	instr := p.lastIPC * f * 1e9 * EpochSeconds
	accesses := int(instr * params.MemPKI / 1000)
	if accesses < 64 {
		accesses = 64
	}
	if accesses > p.MaxAccessesPerEpoch {
		accesses = p.MaxAccessesPerEpoch
	}
	p.hier.L1.ResetStats()
	p.hier.L2.ResetStats()
	for a := 0; a < accesses; a++ {
		p.hier.Access(p.gen.Next())
	}
	if m := p.met; m != nil {
		// Per-level hit/miss telemetry: stats were reset at the top of
		// this epoch, so Stats() is exactly this epoch's replay.
		a1, m1 := p.hier.L1.Stats()
		a2, m2 := p.hier.L2.Stats()
		m.l1Accesses.Add(a1)
		m.l1Misses.Add(m1)
		m.l2Accesses.Add(a2)
		m.l2Misses.Add(m2)
	}
	l1Rate := p.hier.L1.MissRate()
	l2Rate := p.hier.L2.MissRate() // of L1 misses
	// Convert to per-kilo-instruction terms for the interval model.
	l1mpki := l1Rate * params.MemPKI
	l2mpki := l1Rate * l2Rate * params.MemPKI
	// Override the analytic curves with the measured rates by setting a
	// flat "curve" at the measured value.
	params.L1M1, params.L1Alpha, params.L1Floor = l1mpki, 0, l1mpki
	params.L2M1, params.L2Alpha, params.L2Floor = l2mpki, 0, l2mpki

	tel := refStepCore(p.inner, params, phaseID)
	if tel.Instructions > 0 && f > 0 {
		p.lastIPC = tel.Instructions / (f * 1e9 * EpochSeconds)
	}
	return tel
}

// L1MPKI evaluates the L1 miss curve at the given way count.
func (p PhaseParams) L1MPKI(ways int) float64 {
	return missCurve(p.L1M1, p.L1Alpha, p.L1Floor, ways)
}

// L2MPKI evaluates the L2 miss curve at the given way count.
func (p PhaseParams) L2MPKI(ways int) float64 {
	return missCurve(p.L2M1, p.L2Alpha, p.L2Floor, ways)
}

// refEvalPerf runs the interval model for one epoch.
//
// warmL1/warmL2 are additional transient misses per kilo-instruction due
// to recent cache resizes; dvfsStallFrac is the fraction of the epoch
// lost to a DVFS transition.
func refEvalPerf(p PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac float64) PerfResult {
	f := cfg.FreqGHz()
	rob := float64(cfg.ROBEntries())

	// ILP exposed by the instruction window, at this workload's demand.
	demand := p.ROBDemand
	if demand <= 0 {
		demand = defaultROBDemand
	}
	ilpEff := p.ILP * (1 - math.Exp(-rob/demand))
	ipcCore := math.Min(issueWidth, ilpEff)
	if ipcCore < 0.05 {
		ipcCore = 0.05
	}
	cpiBase := 1 / ipcCore

	// Miss traffic with resize warm-up transients. L2 misses cannot
	// exceed L1 misses (inclusive hierarchy).
	l1mpki := p.L1MPKI(cfg.L1Ways()) + warmL1
	l2mpki := p.L2MPKI(cfg.L2Ways()) + warmL2
	if l2mpki > l1mpki {
		l2mpki = l1mpki
	}

	// Stall components per instruction.
	cpiL1 := l1mpki / 1000 * l2HitLatencyCycles * l2OverlapFactor
	memCycles := memLatencyNS * f // ns × GHz = cycles
	// Memory-level parallelism grows with the window on the same
	// per-workload demand scale, normalized so the full ROB achieves
	// MLPMax.
	mlpFrac := (1 - math.Exp(-rob/demand)) / (1 - math.Exp(-mlpROBRef/demand))
	mlp := 1 + (p.MLPMax-1)*mlpFrac
	if mlp < 1 {
		mlp = 1
	}
	cpiL2 := l2mpki / 1000 * memCycles / mlp
	cpiBr := p.BranchMPKI / 1000 * branchPenaltyCycles

	cpi := cpiBase + cpiL1 + cpiL2 + cpiBr
	ipc := 1 / cpi

	if dvfsStallFrac < 0 {
		dvfsStallFrac = 0
	}
	if dvfsStallFrac > 1 {
		dvfsStallFrac = 1
	}
	activeSeconds := EpochSeconds * (1 - dvfsStallFrac)
	instr := ipc * f * 1e9 * activeSeconds
	bips := instr / EpochSeconds / 1e9

	return PerfResult{
		IPC: ipc, BIPS: bips, Instructions: instr,
		CPIBase: cpiBase, CPIL1: cpiL1, CPIL2: cpiL2, CPIBranch: cpiBr,
		L1MPKI: l1mpki, L2MPKI: l2mpki,
	}
}

// refEvalPower computes epoch power from the performance result and
// configuration. tempC is the current die temperature (for leakage);
// activity scales dynamic energy.
func refEvalPower(p PhaseParams, cfg Config, perf PerfResult, tempC, activity float64) PowerResult {
	f := cfg.FreqGHz()
	v := Voltage(f)
	vScale := (v / vNom) * (v / vNom)

	// Instruction throughput in G instr/s; nJ/instr × Ginstr/s = W.
	gips := perf.BIPS

	robFrac := float64(cfg.ROBEntries()) / 128.0
	epi := epiCoreNJ + epiROBNJ*pow(robFrac, 0.7)
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
	return PowerResult{
		TotalW: total, DynamicW: dynamic, LeakageW: leak, ClockW: clock,
		EnergyJ: total * EpochSeconds,
	}
}

// bitDiff describes the first field in which a and b differ, comparing
// floats by bit pattern, or returns "" when every field is identical.
// a and b are values of the same struct type.
func bitDiff(a, b any) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return diffValue(va, vb, va.Type().Name())
}

func diffValue(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValue(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if x, y := a.Float(), b.Float(); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s: %v (%#016x) vs %v (%#016x)", path, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	default:
		panic("bitDiff: unsupported field kind " + a.Kind().String() + " at " + path)
	}
	return ""
}
