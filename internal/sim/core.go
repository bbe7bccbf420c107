package sim

import "math"

// First-order interval model of the out-of-order core (after Karkhanis &
// Smith, "A First-Order Superscalar Processor Model", ISCA 2004): the
// core sustains its ILP-limited issue rate except where miss events
// insert stall intervals. The paper's cycle-level ESESC model is
// replaced by this analytic model evaluated per 50 µs epoch; see
// DESIGN.md for the substitution argument.

// Microarchitectural constants of the modeled Cortex-A15-like core
// (paper Table III: 3-issue out of order, 64 B lines, L2 18 cycles,
// memory 125 cycles at the 1.3 GHz baseline ≈ 96 ns).
const (
	issueWidth = 3.0
	// defaultROBDemand is the window-demand scale used when a workload
	// does not specify one: ilpEff = ILP·(1 - exp(-ROB/demand)).
	defaultROBDemand = 30.0
	// l2HitLatencyCycles is the L1-miss/L2-hit service time.
	l2HitLatencyCycles = 18.0
	// l2OverlapFactor is the fraction of L2-hit latency the OoO engine
	// cannot hide.
	l2OverlapFactor = 0.55
	// memLatencyNS is the main-memory latency in nanoseconds (fixed in
	// wall-clock time, so its cycle cost grows with frequency — 125
	// cycles at the 1.3 GHz baseline).
	memLatencyNS = 96.0
	// branchPenaltyCycles is the misprediction redirect cost.
	branchPenaltyCycles = 14.0
	// mlpROBRef is the ROB size at which MLPMax is fully achieved.
	mlpROBRef = 128.0
)

// PerfResult reports one epoch of the interval model.
type PerfResult struct {
	IPC float64 // committed instructions per cycle
	// BIPS is the performance output: billions of instructions per
	// second over the epoch, accounting for any DVFS stall.
	BIPS float64
	// Instructions committed this epoch.
	Instructions float64
	// Component CPI breakdown (per instruction, in cycles).
	CPIBase, CPIL1, CPIL2, CPIBranch float64
	// Miss traffic actually used (after warm-up extras), per kI.
	L1MPKI, L2MPKI float64
}

// perfInto writes the interval model at cfg into dst, for the phase s
// was last refreshed with; p supplies the per-epoch (AR-scaled) ILP and
// the fields the surface does not tabulate. dst is filled field by
// field so the result goes straight to the caller's memory.
func (s *surface) perfInto(dst *PerfResult, p *PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac float64) {
	f := cfg.FreqGHz()
	robSat := s.robSat[cfg.ROBIdx]

	// ILP exposed by the instruction window, at this workload's demand.
	ilpEff := p.ILP * robSat
	ipcCore := math.Min(issueWidth, ilpEff)
	if ipcCore < 0.05 {
		ipcCore = 0.05
	}
	cpiBase := 1 / ipcCore

	// Miss traffic with resize warm-up transients. L2 misses cannot
	// exceed L1 misses (inclusive hierarchy).
	l1mpki := s.l1MPKI[cfg.CacheIdx] + warmL1
	l2mpki := s.l2MPKI[cfg.CacheIdx] + warmL2
	if l2mpki > l1mpki {
		l2mpki = l1mpki
	}

	// Stall components per instruction.
	cpiL1 := l1mpki / 1000 * l2HitLatencyCycles * l2OverlapFactor
	memCycles := memLatencyNS * f // ns × GHz = cycles
	// Memory-level parallelism grows with the window on the same
	// per-workload demand scale, normalized so the full ROB achieves
	// MLPMax.
	mlpFrac := robSat / s.mlpSat
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

	dst.IPC, dst.BIPS, dst.Instructions = ipc, bips, instr
	dst.CPIBase, dst.CPIL1, dst.CPIL2, dst.CPIBranch = cpiBase, cpiL1, cpiL2, cpiBr
	dst.L1MPKI, dst.L2MPKI = l1mpki, l2mpki
}
