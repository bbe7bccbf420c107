package adapt

import (
	"mimoctl/internal/telemetry"
)

// Telemetry binding for the adaptation loop: each adapter carries its
// own instruments, bound to its loop's registry scope by BindTelemetry
// (normally through supervisor.Supervised.BindTelemetry); an unbound
// adapter drives none.

type adaptMetrics struct {
	state      telemetry.Gauge
	excitation telemetry.Gauge
	lastMargin telemetry.Gauge

	triggers       telemetry.Counter
	exciteEpochs   telemetry.Counter
	redesigns      telemetry.Counter
	verifyFailures telemetry.Counter
	swaps          telemetry.Counter
	reverts        telemetry.Counter
	giveUps        telemetry.Counter
}

// BindTelemetry binds this adapter to a registry, normally its loop's
// scope. A nil or disabled registry unbinds.
func (a *Adapter) BindTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		a.tel = nil
		return
	}
	a.tel = newAdaptMetrics(reg)
	a.publishState()
}

func newAdaptMetrics(reg *telemetry.Registry) *adaptMetrics {
	m := &adaptMetrics{
		state:          reg.Gauge("adapt_state", "adaptation state machine position (0 nominal, 1 drifted, 2 exciting, 3 redesigning, 4 verifying, 5 swapped)"),
		excitation:     reg.Gauge("adapt_excitation_cov", "RLS poor-excitation metric: max diagonal of the parameter covariance"),
		lastMargin:     reg.Gauge("adapt_last_margin", "small-gain margin of the last candidate verification (1/peak-gain)"),
		triggers:       reg.Counter("adapt_triggers_total", "accepted drift episodes"),
		exciteEpochs:   reg.Counter("adapt_excite_epochs_total", "epochs carrying identification dither"),
		redesigns:      reg.Counter("adapt_redesigns_total", "candidate design computations"),
		verifyFailures: reg.Counter("adapt_verify_failures_total", "candidates rejected by the inflated-guardband small-gain gate"),
		swaps:          reg.Counter("adapt_swaps_total", "accepted controller gain hot-swaps"),
		reverts:        reg.Counter("adapt_reverts_total", "hot swaps undone after failing post-swap probation"),
		giveUps:        reg.Counter("adapt_giveups_total", "drift episodes abandoned after the attempt budget"),
	}
	return m
}
