package sim

// Test-only API: the exports the external tests (package sim_test),
// which need internal/workloads and so cannot live in package sim,
// read, and the one-call model evaluators and the trace runner the
// tests drive the plant's arithmetic through.

var (
	RefStep      = refStep
	RefTraceStep = refTraceStep
	BitDiff      = bitDiff
	CheckSurface = checkSurface
)

// Surface is the per-phase response-surface table.
type Surface = surface

// EvalPerf runs the interval model for one epoch.
//
// warmL1/warmL2 are additional transient misses per kilo-instruction due
// to recent cache resizes; dvfsStallFrac is the fraction of the epoch
// lost to a DVFS transition. It tabulates the response surface for p
// on every call; a Processor keeps one per phase instead.
func EvalPerf(p PhaseParams, cfg Config, warmL1, warmL2, dvfsStallFrac float64) (r PerfResult) {
	var s surface
	s.refresh(&p)
	s.perfInto(&r, &p, cfg, warmL1, warmL2, dvfsStallFrac)
	return r
}

// EvalPower computes epoch power from the performance result and
// configuration. tempC is the current die temperature (for leakage);
// activity scales dynamic energy.
func EvalPower(p PhaseParams, cfg Config, perf PerfResult, tempC, activity float64) (r PowerResult) {
	powerInto(&r, &p, cfg, &perf, tempC, activity)
	return r
}

// Run executes n epochs and returns the telemetry trace.
func (p *Processor) Run(n int) []Telemetry {
	out := make([]Telemetry, n)
	for i := range out {
		p.step(&out[i])
	}
	return out
}

// Totals returns cumulative energy (J), instructions, and wall-clock
// seconds since construction or the last ResetTotals.
func (p *Processor) Totals() (energyJ, instructions, seconds float64) {
	return p.totalEnergyJ, p.totalInstr, p.totalSeconds
}
