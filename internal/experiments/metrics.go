package experiments

import (
	"sync/atomic"

	"mimoctl/internal/core"
	"mimoctl/internal/obs"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
)

// Telemetry instrumentation for the experiment harness. EnableTelemetry
// is the single switch a binary flips: it cascades the registry to the
// plant, controller and runner layers (sim processors bind at
// construction, so call it before running anything) and registers the
// harness-level progress metrics. Supervised loops bind per loop
// instead, through the fleet SetObservability attaches (wireLoopObs).

type expMetrics struct {
	// reg is kept for the per-figure labeled counters, which are
	// created lazily when a figure completes (the label set is open).
	reg    *telemetry.Registry
	epochs telemetry.Counter
}

var expTel atomic.Pointer[expMetrics]

// EnableTelemetry binds every instrumented layer to one registry. Pass
// nil to disable instrumentation everywhere (the seed behaviour).
func EnableTelemetry(reg *telemetry.Registry) {
	sim.SetTelemetry(reg)
	core.SetTelemetry(reg)
	runner.SetTelemetry(reg)
	if reg == nil {
		expTel.Store(nil)
		return
	}
	expTel.Store(&expMetrics{
		reg:    reg,
		epochs: reg.Counter("experiments_epochs_total", "closed-loop control epochs driven by the harness"),
	})
}

// countEpochs records closed-loop epochs driven by a Run* helper or a
// figure's custom loop.
func countEpochs(n int) {
	if m := expTel.Load(); m != nil && n > 0 {
		m.epochs.Add(uint64(n))
	}
}

// expObs is the fleet observability plane the harness wires into every
// supervised run it builds (nil: observability off, the seed behavior).
var expObs atomic.Pointer[obs.Fleet]

// SetObservability attaches a fleet observability plane to the harness:
// supervised controllers driven by the fault sweep (and anything else
// that calls wireLoopObs) get a per-loop fleet handle, per-loop scoped
// metrics, and — when the fleet carries a bus — per-epoch events. Pass
// nil to detach.
func SetObservability(f *obs.Fleet) {
	if f == nil {
		expObs.Store(nil)
		return
	}
	expObs.Store(f)
}

// wireLoopObs registers loop with the attached fleet (no-op when none)
// and binds the supervised controller (with its monitor and adapter) to
// the loop's telemetry scope, so the whole stack reports per-loop
// series.
func wireLoopObs(ctrl core.ArchController, loop string) {
	f := expObs.Load()
	if f == nil {
		return
	}
	sup, ok := ctrl.(*supervisor.Supervised)
	if !ok {
		return
	}
	l := f.Register(loop)
	sup.SetLoopObs(l)
	sup.BindTelemetry(l.Scope())
}

// markFigureDone records the successful completion of one figure/table
// reproduction.
func markFigureDone(name string) {
	if m := expTel.Load(); m != nil {
		m.reg.Counter("experiments_figures_completed_total",
			"figure/table reproductions completed", telemetry.L("figure", name)).Inc()
	}
}
