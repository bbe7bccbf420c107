package core

import (
	"mimoctl/internal/telemetry"
)

// Telemetry instrumentation for the controller layer (this package and
// the LQG engine it wraps). The controller step is ~1 µs, so the
// per-step budget is looser than the plant's: innovation histograms and
// tracking-error gauges update every step, while the two latency timers
// (whole controller step, inner LQG step) sample every
// ctrlSampleEvery steps.
//
// There is no process-wide binding: a controller drives only the
// instruments BindTelemetry gave it, and an unbound one (the default,
// and every fresh Clone) pays one nil check per step. Designs memoized
// for many jobs (experiments.DesignedMIMO) stay unbound; the jobs bind
// the clones they step.

// ctrlSampleEvery is the latency sampling interval (a power of two).
const ctrlSampleEvery = 16

type ctrlMetrics struct {
	steps       telemetry.Counter
	stepSeconds telemetry.Histogram
	lqgSeconds  telemetry.Histogram

	innovIPS   telemetry.Histogram
	innovPower telemetry.Histogram

	trackErrIPS   telemetry.Gauge
	trackErrPower telemetry.Gauge

	targetChanges  telemetry.Counter
	targetErrors   telemetry.Counter
	stepErrors     telemetry.Counter
	feedbackErrors telemetry.Counter
}

// BindTelemetry binds this controller to a registry. A nil registry
// unbinds it; a Clone starts unbound.
func (c *MIMOController) BindTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		c.tel = nil
		return
	}
	c.tel = newCtrlMetrics(reg)
}

func newCtrlMetrics(reg *telemetry.Registry) *ctrlMetrics {
	latBuckets := telemetry.ExponentialBuckets(100e-9, 2, 14) // 100 ns .. ~800 µs
	// Innovation magnitudes in absolute output units (BIPS, W): the
	// designed plant's outputs live in [0, ~10], and a healthy loop's
	// innovation sits well under 0.5.
	innovBuckets := telemetry.ExponentialBuckets(0.001, 2, 13) // 1e-3 .. ~4
	return &ctrlMetrics{
		steps:       reg.Counter("ctrl_steps_total", "controller invocations"),
		stepSeconds: reg.Histogram("ctrl_step_seconds", "wall time of one controller step (sampled)", latBuckets),
		lqgSeconds:  reg.Histogram("lqg_step_seconds", "wall time of the inner LQG step (sampled)", latBuckets),

		innovIPS:   reg.Histogram("ctrl_innovation_abs", "Kalman innovation magnitude |y - C x̂|", innovBuckets, telemetry.L("output", "ips")),
		innovPower: reg.Histogram("ctrl_innovation_abs", "Kalman innovation magnitude |y - C x̂|", innovBuckets, telemetry.L("output", "power")),

		trackErrIPS:   reg.Gauge("ctrl_tracking_error_rel", "relative tracking error of the last step", telemetry.L("output", "ips")),
		trackErrPower: reg.Gauge("ctrl_tracking_error_rel", "relative tracking error of the last step", telemetry.L("output", "power")),

		targetChanges:  reg.Counter("ctrl_target_changes_total", "accepted SetTargets calls"),
		targetErrors:   reg.Counter("ctrl_target_errors_total", "rejected SetTargets calls"),
		stepErrors:     reg.Counter("ctrl_step_errors_total", "absorbed LQG step failures"),
		feedbackErrors: reg.Counter("ctrl_feedback_errors_total", "rejected actuator-feedback updates"),
	}
}
