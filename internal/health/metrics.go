package health

import (
	"mimoctl/internal/telemetry"
)

// Telemetry binding for the model-health monitors: each monitor carries
// its own gauges, bound to its loop's registry scope by BindTelemetry
// (normally through supervisor.Supervised.BindTelemetry); an unbound
// monitor drives none.

type healthMetrics struct {
	consumptionIPS  telemetry.Gauge
	consumptionPow  telemetry.Gauge
	stabilityMargin telemetry.Gauge
	level           telemetry.Gauge
}

// BindTelemetry binds this monitor's gauges to a registry, normally its
// loop's scope. A nil or disabled registry unbinds. Nil-safe.
func (m *Monitor) BindTelemetry(reg *telemetry.Registry) {
	if m == nil {
		return
	}
	var t *healthMetrics
	if reg.Enabled() {
		t = newHealthMetrics(reg)
	}
	m.mu.Lock()
	m.tel = t
	m.mu.Unlock()
}

func newHealthMetrics(reg *telemetry.Registry) *healthMetrics {
	return &healthMetrics{
		consumptionIPS:  reg.Gauge("health_guardband_consumption", "EMA innovation magnitude over the design guardband", telemetry.L("channel", "ips")),
		consumptionPow:  reg.Gauge("health_guardband_consumption", "EMA innovation magnitude over the design guardband", telemetry.L("channel", "power")),
		stabilityMargin: reg.Gauge("health_stability_margin", "small-gain margin recomputed with the observed guardband"),
		level:           reg.Gauge("health_level", "combined model-health verdict (0 ok, 1 warn, 2 fail)"),
	}
}

// publish mirrors one evaluation into the gauges: cons is each
// channel's guardband consumption.
func (t *healthMetrics) publish(s Snapshot, cons [2]float64) {
	t.consumptionIPS.Set(cons[0])
	t.consumptionPow.Set(cons[1])
	t.stabilityMargin.Set(s.StabilityMargin)
	t.level.Set(float64(s.Level))
}
