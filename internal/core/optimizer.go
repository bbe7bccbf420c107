package core

import (
	"errors"
	"math"

	"mimoctl/internal/sim"
)

// Optimizer implements the paper's third use of MIMO control (§V "Fast
// Optimization Leveraging Tracking", Fig. 5): a high-level search over
// the (IPS, power) reference space that maximizes IPS^k/P — equivalently
// minimizes E·D^(k-1) — while the underlying tracking controller finds
// the knob settings that realize each candidate reference.
//
// A full search episode starts from the midrange configuration (§VI-B),
// then repeatedly moves the reference "Up" (much higher IPS, slightly
// higher power) or "Down" (slightly lower IPS, much lower power),
// keeping moves that improve the measured metric and reversing direction
// otherwise, for at most DefaultOptimizerMaxTries trials with no
// backtracking.
//
// A full search runs at startup and on every workload phase change
// (§VI-C). The periodic 10 ms invocations refine instead: they re-measure
// the operating point and probe a couple of moves from it, without the
// disruptive midrange reset — re-exploring from scratch when nothing
// changed would burn the very energy the optimizer is minimizing.
type Optimizer struct {
	base ArchController
	k    int

	// Step factors for the Up and Down moves.
	upIPS, upPower     float64
	downIPS, downPower float64

	refineTries int

	// Refinement backoff: fruitless refinements double the effective
	// period (up to 16x) so a converged loop stops paying exploration
	// energy; any improvement or phase change resets it.
	backoff int

	// Runtime state machine.
	state         optState
	stateEpochs   int
	tries         int
	triesBudget   int
	forceMid      bool
	dirUp         bool
	sumIPS        float64
	sumPower      float64
	sumCount      int
	curIPS        float64 // reference of the point being tried
	curPower      float64
	bestIPS       float64 // reference of the best accepted point
	bestPower     float64
	bestMeasIPS   float64 // measured outputs at the best point: what the
	bestMeasPower float64 // plant actually delivered there
	bestMetric    float64
	sincePeriod   int
	lastPhase     int
	haveLastPhase bool
}

type optState int

const (
	optInit  optState = iota // midrange settling + measuring
	optTrial                 // trying a moved reference
	optHold                  // best point held until next invocation
)

// OptimizerConfig selects the metric; the search itself runs Table
// III's parameters (DefaultOptimizerMaxTries, DefaultOptimizerSettleEpochs,
// DefaultOptimizerMeasureEpochs, DefaultOptimizerPeriodEpochs).
type OptimizerConfig struct {
	// K selects the metric IPS^K/P: K=1 minimizes energy, K=2 E×D,
	// K=3 E×D².
	K int
}

// refineTries is the trial budget of a periodic (non-phase-change)
// refinement episode.
const refineTries = 2

// NewOptimizer wraps a tracking controller.
func NewOptimizer(base ArchController, cfg OptimizerConfig) (*Optimizer, error) {
	if base == nil {
		return nil, errors.New("core: optimizer needs a base controller")
	}
	if cfg.K < 1 {
		return nil, errors.New("core: optimizer K must be >= 1")
	}
	o := &Optimizer{
		base: base, k: cfg.K,
		refineTries: refineTries,
		upIPS:       1.12, upPower: 1.08,
		downIPS: 0.985, downPower: 0.90,
		dirUp: true,
	}
	o.Reset()
	return o, nil
}

// Name implements ArchController.
func (o *Optimizer) Name() string { return o.base.Name() + "+opt" }

// SetTargets is accepted but an active search overrides it; it resets
// the search from the given point.
func (o *Optimizer) SetTargets(ips, power float64) {
	o.base.SetTargets(ips, power)
	o.curIPS, o.curPower = ips, power
}

// Targets returns the base controller's current references.
func (o *Optimizer) Targets() (float64, float64) { return o.base.Targets() }

// Reset implements ArchController: the next Step starts a fresh full
// search.
func (o *Optimizer) Reset() {
	o.base.Reset()
	o.state = optInit
	o.stateEpochs = 0
	o.tries = 0
	o.triesBudget = DefaultOptimizerMaxTries
	o.forceMid = true
	o.dirUp = true
	o.bestMetric = 0
	o.sincePeriod = 0
	o.haveLastPhase = false
	o.backoff = 1
	o.clearMeasurement()
}

func (o *Optimizer) clearMeasurement() {
	o.sumIPS, o.sumPower, o.sumCount = 0, 0, 0
}

// metric computes IPS^k / P.
func (o *Optimizer) metric(ips, power float64) float64 {
	if power <= 0 {
		return 0
	}
	return math.Pow(ips, float64(o.k)) / power
}

// Step implements ArchController.
func (o *Optimizer) Step(t sim.Telemetry) sim.Config {
	// Phase-change detection restarts the full search (§VI-C: "invoked
	// every 10ms or when there is a phase change").
	if o.haveLastPhase && t.PhaseID != o.lastPhase {
		o.restartSearch(true)
	}
	o.lastPhase = t.PhaseID
	o.haveLastPhase = true

	o.sincePeriod++
	o.stateEpochs++

	switch o.state {
	case optInit:
		// Hold the midrange configuration while the plant settles, then
		// measure the starting point.
		if o.stateEpochs > DefaultOptimizerSettleEpochs {
			o.sumIPS += t.IPS
			o.sumPower += t.PowerW
			o.sumCount++
		}
		if o.stateEpochs >= DefaultOptimizerSettleEpochs+DefaultOptimizerMeasureEpochs {
			ips := o.sumIPS / float64(o.sumCount)
			power := o.sumPower / float64(o.sumCount)
			o.bestIPS, o.bestPower = ips, power
			o.bestMeasIPS, o.bestMeasPower = ips, power
			o.bestMetric = o.metric(ips, power)
			o.beginTrial(ips, power)
		}
		if o.forceMid {
			return sim.MidrangeConfig()
		}
		return o.base.Step(t)

	case optTrial:
		if o.stateEpochs > DefaultOptimizerSettleEpochs {
			o.sumIPS += t.IPS
			o.sumPower += t.PowerW
			o.sumCount++
		}
		if o.stateEpochs >= DefaultOptimizerSettleEpochs+DefaultOptimizerMeasureEpochs {
			ips := o.sumIPS / float64(o.sumCount)
			power := o.sumPower / float64(o.sumCount)
			m := o.metric(ips, power)
			if m > o.bestMetric {
				// Accept: continue in the same direction from here.
				o.bestMetric = m
				o.bestIPS, o.bestPower = o.curIPS, o.curPower
				o.bestMeasIPS, o.bestMeasPower = ips, power
				o.backoff = 1
			} else {
				// Reject: reverse direction, continue from the best
				// point (no backtracking re-measurement).
				o.dirUp = !o.dirUp
			}
			if o.tries >= o.triesBudget {
				o.state = optHold
				// Hold what the plant actually delivered at the best
				// point, not the (possibly unrealizable) trial targets:
				// holding an unreachable reference leaves the tracker
				// straining against its limits.
				o.base.SetTargets(o.bestMeasIPS, o.bestMeasPower)
				if o.backoff < 16 {
					o.backoff *= 2
				}
			} else {
				o.beginTrial(o.bestIPS, o.bestPower)
			}
		}
		return o.base.Step(t)

	default: // optHold
		if o.sincePeriod >= DefaultOptimizerPeriodEpochs*o.backoff {
			o.restartSearch(false)
		}
		return o.base.Step(t)
	}
}

// beginTrial moves the reference one step from (fromIPS, fromPower) in
// the current direction and schedules its measurement. Refinement
// episodes use half-size steps: they fine-tune around an already good
// point rather than crossing the operating space.
func (o *Optimizer) beginTrial(fromIPS, fromPower float64) {
	scale := 1.0
	if !o.forceMid {
		scale = 0.5
	}
	shrink := func(f float64) float64 { return 1 + (f-1)*scale }
	if o.dirUp {
		o.curIPS = fromIPS * shrink(o.upIPS)
		o.curPower = fromPower * shrink(o.upPower)
	} else {
		o.curIPS = fromIPS * shrink(o.downIPS)
		o.curPower = fromPower * shrink(o.downPower)
	}
	o.base.SetTargets(o.curIPS, o.curPower)
	o.state = optTrial
	o.stateEpochs = 0
	o.tries++
	o.clearMeasurement()
}

// restartSearch begins a new episode. A full episode (phase change)
// resets the base controller and explores from the midrange
// configuration with the full trial budget; a refinement episode
// re-measures the current operating point and probes refineTries moves
// from it.
func (o *Optimizer) restartSearch(full bool) {
	o.state = optInit
	o.stateEpochs = 0
	o.tries = 0
	o.dirUp = true
	o.bestMetric = 0
	o.sincePeriod = 0
	o.forceMid = full
	if full {
		o.triesBudget = DefaultOptimizerMaxTries
		o.base.Reset()
	} else {
		o.triesBudget = o.refineTries
	}
	o.clearMeasurement()
}
