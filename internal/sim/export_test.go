package sim

// Test-only exports for the external differential tests (package
// sim_test), which need internal/workloads and so cannot live in
// package sim.

var (
	RefStep      = refStep
	RefTraceStep = refTraceStep
	BitDiff      = bitDiff
	CheckSurface = checkSurface
)

// Surface is the per-phase response-surface table.
type Surface = surface
