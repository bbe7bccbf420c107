package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mimoctl/internal/lqg"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// Health counts the internal error events a deployed controller
// absorbed rather than propagated. A hardware control loop cannot stop
// to report an error — it must issue some configuration every epoch —
// so faults are counted here and surfaced to the supervised runtime
// (internal/supervisor), which decides when the accumulation means the
// controller is sick.
type Health struct {
	// TargetErrors counts rejected SetTargets calls (non-finite or
	// dimensionally invalid references); the previous targets stay.
	TargetErrors int
	// StepErrors counts LQG step failures; the previous configuration
	// was held for those epochs.
	StepErrors int
	// FeedbackErrors counts rejected actuator-feedback updates
	// (ObserveApplied failures).
	FeedbackErrors int
}

// MIMOController is the paper's controller (Table IV "MIMO"): an LQG
// servo controller over the identified plant model, actuating frequency
// and cache size (plus ROB size in the 3-input variant) to track IPS and
// power references in a coordinated way.
//
// All model arithmetic happens in deviation coordinates around the
// identification operating point; this wrapper converts telemetry and
// references into that frame and quantizes the controller's continuous
// input requests onto the legal knob settings.
type MIMOController struct {
	lq         *lqg.Controller
	off        sysid.Offsets
	threeInput bool

	ipsTarget, powerTarget float64
	cur                    sim.Config
	haveCur                bool
	health                 Health
	// stepErr reports whether the most recent Step failed (FillInternals).
	stepErr bool

	// tel is the telemetry binding (nil when unbound, see
	// BindTelemetry); stepCount paces its latency sampling.
	tel       *ctrlMetrics
	stepCount uint64

	// scr holds fixed-size scratch for the per-step conversions so Step
	// allocates nothing in steady state. The arrays are struct values:
	// Clone's shallow copy gives every clone independent scratch.
	scr mimoScratch
}

// mimoScratch is sized for the worst case (3-input variant, 2 outputs).
type mimoScratch struct {
	y     [2]float64 // measured outputs, deviation coordinates
	u     [3]float64 // requested knobs, absolute units (FillInternals reads it)
	uq    [3]float64 // quantized knobs, absolute units
	dq    [3]float64 // quantized knobs, deviation coordinates
	ref   [2]float64 // reference for TrySetTargets
	innov [2]float64 // last innovation, absolute units (Step's instruments, FillEvent)
}

// NewMIMOController wraps a designed LQG controller. Prefer DesignMIMO,
// which runs the full Fig. 3 flow and calls this at the end.
func NewMIMOController(lq *lqg.Controller, off sysid.Offsets, threeInput bool) (*MIMOController, error) {
	wantIn := 2
	if threeInput {
		wantIn = 3
	}
	if lq.Plant().Inputs() != wantIn {
		return nil, fmt.Errorf("core: controller has %d inputs, want %d", lq.Plant().Inputs(), wantIn)
	}
	if lq.Plant().Outputs() != 2 {
		return nil, errors.New("core: controller must have outputs [IPS, power]")
	}
	c := &MIMOController{lq: lq, off: off, threeInput: threeInput}
	if err := c.TrySetTargets(DefaultIPSTarget, DefaultPowerTarget); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements ArchController.
func (c *MIMOController) Name() string { return "MIMO" }

// Health returns the absorbed-error counters since the last Reset.
func (c *MIMOController) Health() Health { return c.health }

// LastInnovation returns the Kalman innovation of the most recent Step
// (absolute output units: BIPS, watts). The supervised runtime monitors
// its magnitude to detect a model that no longer explains the plant.
func (c *MIMOController) LastInnovation() []float64 { return c.lq.LastInnovation() }

// LastInnovationInto appends the most recent innovation to dst[:0],
// avoiding LastInnovation's per-call allocation for streaming consumers
// (the supervisor's model-health alarms and records).
func (c *MIMOController) LastInnovationInto(dst []float64) []float64 {
	return c.lq.LastInnovationInto(dst)
}

// FillInternals writes into ev what only this controller knows about
// its most recent Step: the continuous request in absolute knob units
// (NaN when the step failed), the anti-windup ExcessNorm, FlagStepError
// on a failed step, and ReqROB = IdxNA when the ROB knob is not driven.
// The other fields are the record writer's: FillEvent, for a loop
// without a supervisor, and a supervisor's per-epoch event both call it.
func (c *MIMOController) FillInternals(ev *obs.Event) {
	nan := math.NaN()
	ev.ExcessNorm = c.lq.LastExcessNorm()
	ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries = nan, nan, nan
	if c.stepErr {
		ev.Flags |= obs.FlagStepError
	} else {
		ev.UFreqGHz, ev.UL2Ways = c.scr.u[0], c.scr.u[1]
		if c.threeInput {
			ev.UROBEntries = c.scr.u[2] * ROBUnit
		}
	}
	if !c.threeInput {
		ev.ReqROB = obs.IdxNA
	}
}

// TrySetTargets validates and updates the output references, reporting
// why a reference was rejected. Rejected targets leave the previous
// references in effect and increment Health.TargetErrors.
func (c *MIMOController) TrySetTargets(ips, power float64) error {
	m := c.tel
	if math.IsNaN(ips) || math.IsInf(ips, 0) || math.IsNaN(power) || math.IsInf(power, 0) {
		c.health.TargetErrors++
		if m != nil {
			m.targetErrors.Inc()
		}
		return fmt.Errorf("core: non-finite targets (%v BIPS, %v W)", ips, power)
	}
	if ips < 0 || power < 0 {
		c.health.TargetErrors++
		if m != nil {
			m.targetErrors.Inc()
		}
		return fmt.Errorf("core: negative targets (%v BIPS, %v W)", ips, power)
	}
	ref := c.scr.ref[:]
	ref[0], ref[1] = ips-c.off.Y0[0], power-c.off.Y0[1]
	if err := c.lq.SetReference(ref); err != nil {
		c.health.TargetErrors++
		if m != nil {
			m.targetErrors.Inc()
		}
		return fmt.Errorf("core: reference rejected: %w", err)
	}
	c.ipsTarget, c.powerTarget = ips, power
	if m != nil {
		m.targetChanges.Inc()
	}
	return nil
}

// SetTargets implements ArchController. Invalid targets are rejected
// (counted in Health) and the previous references stay in effect; use
// TrySetTargets to observe the error.
func (c *MIMOController) SetTargets(ips, power float64) {
	_ = c.TrySetTargets(ips, power)
}

// Targets implements ArchController.
func (c *MIMOController) Targets() (float64, float64) { return c.ipsTarget, c.powerTarget }

// Step implements ArchController: Kalman update, LQR feedback,
// quantization to legal settings, and actuator feedback so the estimator
// tracks the input actually applied.
func (c *MIMOController) Step(t sim.Telemetry) sim.Config {
	// Latency timers fire every ctrlSampleEvery steps; event counters
	// and innovation histograms are unconditional.
	m := c.tel
	timed := false
	var t0 time.Time
	if m != nil {
		m.steps.Inc()
		c.stepCount++
		timed = c.stepCount%ctrlSampleEvery == 0
		if timed {
			t0 = time.Now()
		}
	}
	if !c.haveCur {
		c.cur = t.Config
		c.haveCur = true
	}
	y := c.scr.y[:]
	y[0], y[1] = t.IPS-c.off.Y0[0], t.PowerW-c.off.Y0[1]
	var du []float64
	var err error
	if timed {
		lq0 := time.Now()
		du, err = c.lq.Step(y)
		m.lqgSeconds.Observe(time.Since(lq0).Seconds())
	} else {
		du, err = c.lq.Step(y)
	}
	c.stepErr = err != nil
	if err != nil {
		// Dimensions are fixed at construction; count the event and
		// hold the current config if the impossible happens.
		c.health.StepErrors++
		if m != nil {
			m.stepErrors.Inc()
		}
		return c.cur
	}
	if m != nil {
		if innov := c.lq.LastInnovationInto(c.scr.innov[:0]); len(innov) >= 2 {
			m.innovIPS.Observe(math.Abs(innov[0]))
			m.innovPower.Observe(math.Abs(innov[1]))
		}
		if c.ipsTarget > 0 {
			m.trackErrIPS.Set(math.Abs(t.IPS-c.ipsTarget) / c.ipsTarget)
		}
		if c.powerTarget > 0 {
			m.trackErrPower.Set(math.Abs(t.PowerW-c.powerTarget) / c.powerTarget)
		}
	}
	// Deviation -> absolute knob units.
	u := c.scr.u[:len(du)]
	for i := range du {
		u[i] = du[i] + c.off.U0[i]
	}
	cfg := configFromKnobs(u, c.threeInput, c.cur)
	// Report the quantized input back in deviation coordinates.
	uq := knobsFromConfigInto(c.scr.uq[:0], cfg, c.threeInput)
	dq := c.scr.dq[:len(uq)]
	for i := range uq {
		dq[i] = uq[i] - c.off.U0[i]
	}
	if err := c.lq.ObserveApplied(dq); err == nil {
		c.cur = cfg
	} else {
		c.health.FeedbackErrors++
		if m != nil {
			m.feedbackErrors.Inc()
		}
	}
	if timed {
		m.stepSeconds.Observe(time.Since(t0).Seconds())
	}
	return c.cur
}

// AdoptDesign hot-swaps a freshly designed LQG controller (and the
// operating point its deviation coordinates are anchored to) into this
// wrapper: the adaptation loop's re-identified model arrives here after
// it passes the inflated-guardband small-gain check. The new controller
// must have the same input/output shape as the old one. Its runtime
// state is reset — the estimator must not inherit state expressed in
// the old model's coordinates — and the current targets are re-applied
// in the new offset frame.
func (c *MIMOController) AdoptDesign(lq *lqg.Controller, off sysid.Offsets) error {
	if lq.Plant().Inputs() != c.lq.Plant().Inputs() {
		return fmt.Errorf("core: adopted controller has %d inputs, want %d", lq.Plant().Inputs(), c.lq.Plant().Inputs())
	}
	if lq.Plant().Outputs() != c.lq.Plant().Outputs() {
		return fmt.Errorf("core: adopted controller has %d outputs, want %d", lq.Plant().Outputs(), c.lq.Plant().Outputs())
	}
	if len(off.U0) != lq.Plant().Inputs() || len(off.Y0) != lq.Plant().Outputs() {
		return errors.New("core: adopted offsets do not match the controller shape")
	}
	oldLQ, oldOff := c.lq, c.off
	c.lq, c.off = lq, off
	c.lq.Reset()
	if err := c.TrySetTargets(c.ipsTarget, c.powerTarget); err != nil {
		// The new design cannot even realize the current references:
		// keep flying the old one.
		c.lq, c.off = oldLQ, oldOff
		return fmt.Errorf("core: adopted design rejected targets: %w", err)
	}
	return nil
}

// CurrentDesign returns the deployed LQG controller and operating-point
// offsets — the pair AdoptDesign installs. The adaptation loop
// snapshots it before a hot swap so a failed post-swap probation can
// revert to it.
func (c *MIMOController) CurrentDesign() (*lqg.Controller, sysid.Offsets) {
	return c.lq, c.off
}

// Clone returns an independent controller sharing the immutable design
// (LQG gains, operating-point offsets) with a deep copy of all runtime
// state. Experiment jobs clone the one memoized design per job so a
// parallel sweep never steps a shared controller.
func (c *MIMOController) Clone() *MIMOController {
	d := *c
	d.lq = c.lq.Clone()
	// Whoever steps a clone binds its instruments: clones start unbound.
	d.tel = nil
	return &d
}

// Reset implements ArchController.
func (c *MIMOController) Reset() {
	c.lq.Reset()
	c.haveCur = false
	c.health = Health{}
	c.SetTargets(c.ipsTarget, c.powerTarget)
}
