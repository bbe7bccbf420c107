package sim

import (
	"math/rand"

	"mimoctl/internal/telemetry"
)

// Trace-driven execution mode: instead of evaluating the analytic
// per-workload miss curves, each epoch replays a synthetic address
// stream through the real set-associative cache hierarchy
// (cachesim_test.go) and feeds the *measured* miss rates into the
// interval model. Way-gating
// effects — the capacity loss and the cold-start transient after a
// resize — then emerge from the cache contents themselves rather than
// from the warm-up heuristic.
//
// It is two to three orders of magnitude slower than the analytic mode,
// so the control experiments use the analytic curves and the trace mode
// serves as the ground-truth cross-check the tests hold them against.

// TraceSpecProvider is an optional interface a Workload can implement to
// supply the address-stream character of each phase. tracedProfile
// (tracespec_test.go) implements it for the workload profiles, deriving
// each phase's stream from the profile's miss-curve constants.
type TraceSpecProvider interface {
	TraceSpec(phaseID int) TraceSpec
}

// TraceProcessor wraps the epoch-level model with a trace-driven memory
// hierarchy.
type TraceProcessor struct {
	inner *Processor
	hier  *Hierarchy
	gen   *TraceGen
	rng   *rand.Rand
	prov  TraceSpecProvider

	lastPhase int
	// MaxAccessesPerEpoch caps the replayed accesses; the measured miss
	// rates are applied to the full access count (statistical sampling).
	MaxAccessesPerEpoch int
	// lastIPC seeds the access-count estimate for the next epoch.
	lastIPC float64
	// met is the per-level cache telemetry (nil when unbound).
	met *traceMetrics
}

// traceMetrics are the trace-driven hierarchy's per-level hit/miss
// counters, registered only where a TraceProcessor binds.
type traceMetrics struct {
	l1Accesses, l1Misses telemetry.Counter
	l2Accesses, l2Misses telemetry.Counter
}

// NewTraceProcessor builds a trace-driven processor. The workload must
// implement TraceSpecProvider.
func NewTraceProcessor(w Workload, opts ProcessorOptions, seed int64) (*TraceProcessor, error) {
	inner, err := NewProcessor(w, opts, seed)
	if err != nil {
		return nil, err
	}
	prov, ok := w.(TraceSpecProvider)
	if !ok {
		return nil, errTraceSpec
	}
	hier, err := NewHierarchy()
	if err != nil {
		return nil, err
	}
	// Gate the hierarchy to match the starting configuration.
	if err := hier.SetWays(inner.Config().L2Ways(), inner.Config().L1Ways()); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7ace))
	tp := &TraceProcessor{
		inner: inner, hier: hier, rng: rng, prov: prov,
		lastPhase:           -1,
		MaxAccessesPerEpoch: 8192,
		lastIPC:             1.0,
	}
	return tp, nil
}

var errTraceSpec = errString("sim: workload does not provide a TraceSpec")

type errString string

func (e errString) Error() string { return string(e) }

// Apply changes the knobs; cache resizes gate ways in the real
// hierarchy (losing their contents) instead of charging a warm-up term.
func (p *TraceProcessor) Apply(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := p.hier.SetWays(cfg.L2Ways(), cfg.L1Ways()); err != nil {
		return err
	}
	// Route everything else (DVFS stall, ROB drain) through the inner
	// processor, then cancel its analytic warm-up charge — the real
	// hierarchy provides the transient.
	if err := p.inner.Apply(cfg); err != nil {
		return err
	}
	p.inner.warmL1 = 0
	p.inner.warmL2 = 0
	return nil
}

// Step executes one epoch: estimate the access count from the last IPC,
// replay a (sampled) address stream, and evaluate the interval model
// with the measured miss rates.
func (p *TraceProcessor) Step() (tel Telemetry) {
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

	p.inner.stepWithParams(&params, phaseID, &tel)
	if tel.Instructions > 0 && f > 0 {
		p.lastIPC = tel.Instructions / (f * 1e9 * EpochSeconds)
	}
	return tel
}

// Run executes n epochs.
func (p *TraceProcessor) Run(n int) []Telemetry {
	out := make([]Telemetry, n)
	for i := range out {
		out[i] = p.Step()
	}
	return out
}

// Totals returns cumulative energy, instructions, and seconds.
func (p *TraceProcessor) Totals() (energyJ, instructions, seconds float64) {
	return p.inner.Totals()
}

// Hierarchy exposes the underlying cache hierarchy (for tests).
func (p *TraceProcessor) Hierarchy() *Hierarchy { return p.hier }

// BindTelemetry binds the trace-driven processor, its per-level cache
// counters included, under the rules of Processor.BindTelemetry.
func (p *TraceProcessor) BindTelemetry(reg *telemetry.Registry) {
	p.inner.BindTelemetry(reg)
	if !reg.Enabled() {
		p.met = nil
		return
	}
	p.met = &traceMetrics{
		l1Accesses: reg.Counter("sim_cache_accesses_total", "trace-mode cache accesses", telemetry.L("level", "l1")),
		l1Misses:   reg.Counter("sim_cache_misses_total", "trace-mode cache misses", telemetry.L("level", "l1")),
		l2Accesses: reg.Counter("sim_cache_accesses_total", "trace-mode cache accesses", telemetry.L("level", "l2")),
		l2Misses:   reg.Counter("sim_cache_misses_total", "trace-mode cache misses", telemetry.L("level", "l2")),
	}
}
