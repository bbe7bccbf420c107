package experiments

import (
	"sync/atomic"

	"mimoctl/internal/core"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/telemetry"
)

// Observability of the experiment harness. SetObservability is its one
// attach point. Every supervised loop the harness builds registers with
// the attached fleet and reports to its loop scope (wireLoopObs). When
// the fleet carries an enabled registry, the harness also binds the
// root of that registry to every plant it builds (newProcessor), every
// MIMO controller it steps (bindMIMO: the clones of memoized designs
// and the designs a job owns), its runner plans and its own two
// counters. With nothing attached, nothing is bound.
//
// Plants the design flow builds internally (core.DesignMIMO,
// decoupled.Design, core.ProfileStatic) stay unbound, so
// sim_epochs_total counts the epochs the harness drives and no
// identification epochs.

// attachment is what SetObservability attached.
type attachment struct {
	fleet *obs.Fleet
	// reg is the fleet's registry when it is enabled, else nil; epochs
	// is registered on it.
	reg    *telemetry.Registry
	epochs telemetry.Counter
}

var attached atomic.Pointer[attachment]

// SetObservability attaches a fleet observability plane to the harness:
// supervised controllers driven by the fault sweep (and anything else
// that calls wireLoopObs) get a per-loop fleet handle, per-loop scoped
// metrics, and — when the fleet carries a bus — per-epoch events; an
// enabled fleet registry also receives the plant, controller, runner
// and harness instruments. Pass nil to detach.
func SetObservability(f *obs.Fleet) {
	if f == nil {
		attached.Store(nil)
		return
	}
	a := &attachment{fleet: f}
	if reg := f.Registry(); reg.Enabled() {
		a.reg = reg
		a.epochs = reg.Counter("experiments_epochs_total", "closed-loop control epochs driven by the harness")
	}
	attached.Store(a)
}

// harnessRegistry returns the registry the harness binds its
// instruments to (nil when none is attached).
func harnessRegistry() *telemetry.Registry {
	if a := attached.Load(); a != nil {
		return a.reg
	}
	return nil
}

// newProcessor builds a plant the harness drives, with the default
// noise, bound to the harness registry.
func newProcessor(w sim.Workload, seed int64) (*sim.Processor, error) {
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), seed)
	if err != nil {
		return nil, err
	}
	proc.BindTelemetry(harnessRegistry())
	return proc, nil
}

// bindMIMO binds a MIMO controller one job owns (a clone, or a design
// built for that job alone) to the harness registry and returns it.
// Memoized designs are shared between jobs and are never bound.
func bindMIMO(c *core.MIMOController) *core.MIMOController {
	c.BindTelemetry(harnessRegistry())
	return c
}

// countEpochs records closed-loop epochs driven by a Run* helper or a
// figure's custom loop.
func countEpochs(n int) {
	if a := attached.Load(); a != nil && a.reg != nil && n > 0 {
		a.epochs.Add(uint64(n))
	}
}

// markFigureDone records the successful completion of one figure/table
// reproduction.
func markFigureDone(name string) {
	if reg := harnessRegistry(); reg != nil {
		reg.Counter("experiments_figures_completed_total",
			"figure/table reproductions completed", telemetry.L("figure", name)).Inc()
	}
}

// wireLoopObs registers loop with the attached fleet (no-op when none)
// and binds the supervised controller (with its monitor and adapter) to
// the loop's telemetry scope, so the whole stack reports per-loop
// series.
func wireLoopObs(ctrl core.ArchController, loop string) {
	a := attached.Load()
	if a == nil {
		return
	}
	sup, ok := ctrl.(*supervisor.Supervised)
	if !ok {
		return
	}
	l := a.fleet.Register(loop)
	sup.SetLoopObs(l)
	sup.BindTelemetry(l.Scope())
}
