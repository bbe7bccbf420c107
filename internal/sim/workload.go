package sim

// PhaseParams captures the execution character of a workload during one
// phase. These are the quantities a first-order superscalar model
// (Karkhanis & Smith) needs to predict IPC and power, and they are what
// the synthetic SPEC-like profiles in internal/workloads provide.
type PhaseParams struct {
	// ILP is the intrinsic instruction-level parallelism (sustainable
	// IPC with an unbounded window and perfect memory).
	ILP float64
	// MemPKI is data-memory accesses per kilo-instruction (L1D lookups).
	MemPKI float64
	// L1M1, L1Alpha, L1Floor parameterize the L1 miss curve
	// mpki(ways) = floor + (m1-floor)·ways^(-alpha), in misses per
	// kilo-instruction, with m1 the rate at a single way.
	L1M1, L1Alpha, L1Floor float64
	// L2M1, L2Alpha, L2Floor parameterize the L2 miss curve (misses per
	// kilo-instruction reaching main memory).
	L2M1, L2Alpha, L2Floor float64
	// BranchMPKI is branch mispredictions per kilo-instruction.
	BranchMPKI float64
	// MLPMax is the memory-level parallelism achievable with a full
	// reorder buffer (overlapping outstanding misses).
	MLPMax float64
	// ROBDemand is the window size (entries) at which this workload has
	// extracted ~63% of its ILP and MLP: low-ILP codes saturate with a
	// small window, MLP-hungry streaming codes keep benefiting up to the
	// full 128 entries. Zero selects the default of 30.
	ROBDemand float64
	// Activity scales dynamic power (switching factor), around 1.0.
	Activity float64
}

func missCurve(m1, alpha, floor float64, ways int) float64 {
	if ways < 1 {
		ways = 1
	}
	v := floor + (m1-floor)*pow(float64(ways), -alpha)
	if v < floor {
		v = floor
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Workload supplies phase parameters per control epoch. Implementations
// live in internal/workloads; the simulator only depends on this
// interface.
type Workload interface {
	// Name identifies the workload (e.g. "namd").
	Name() string
	// Params returns the phase parameters in effect at the given epoch
	// and the identifier of the current phase. A change in phase ID is
	// what the phase detector (Isci et al.) reports to the optimizer.
	Params(epoch int) (PhaseParams, int)
}
