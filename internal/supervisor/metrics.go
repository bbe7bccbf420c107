package supervisor

import (
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
)

// Telemetry instrumentation for the supervised runtime. The interesting
// events (mode transitions, sanitization, alarms) are rare, so every
// hook updates the bound instruments unconditionally — no sampling.
// The one per-epoch family, supervisor_epochs_total, is read at scrape
// time from the fleet loop the supervisor is attached to: every
// StepEvent return folds its event into the loop (endEpoch →
// obs.Loop.ObserveInto), so the loop's epoch count is the supervisor's
// by construction. Only a supervisor bound without a loop counts its
// epochs write-through.
//
// There is no process-wide binding: each supervisor drives only the
// instruments BindTelemetry gave it, normally its fleet loop's scope,
// and /healthz is composed by the fleet (obs.Fleet.Healthz) from the
// mode each loop reports. All metric families register eagerly in
// BindTelemetry so a scrape of a healthy run still shows the
// zero-valued fault counters (the absence of fallbacks is itself the
// signal).

type supMetrics struct {
	epochs         telemetry.Counter // nil when read from the fleet loop, or unbound
	mode           telemetry.Gauge
	toFallback     telemetry.Counter
	toEngaged      telemetry.Counter
	fallbackEpochs telemetry.Counter

	sanitizedIPS   telemetry.Counter
	sanitizedPower telemetry.Counter

	deadSensorEpochs  telemetry.Counter
	innovationAlarms  telemetry.Counter
	divergenceAlarms  telemetry.Counter
	modelHealthAlarms telemetry.Counter
	illegalConfigs    telemetry.Counter
	applyFailures     telemetry.Counter
	applyRetries      telemetry.Counter
}

// BindTelemetry binds this supervisor, and its model-health monitor and
// adapter when attached, to a registry: normally the loop's scope
// (obs.Loop.Scope), so a fleet of supervisors exposes per-loop series.
// A nil or disabled registry unbinds all three. Call it after
// SetLoopObs: a supervisor attached to a loop when it binds reports
// supervisor_epochs_total as that loop's epoch count.
func (s *Supervised) BindTelemetry(reg *telemetry.Registry) {
	s.monitor.BindTelemetry(reg)
	if s.adapter != nil {
		s.adapter.BindTelemetry(reg)
	}
	s.tel = newSupMetrics(reg, s.loopObs)
	s.tel.mode.Set(float64(s.st.mode))
}

// unbound is an unbound supervisor's instruments, a nil registry's no-ops.
var unbound = newSupMetrics(nil, nil)

func newSupMetrics(reg *telemetry.Registry, loop *obs.Loop) *supMetrics {
	m := &supMetrics{
		mode:           reg.Gauge("supervisor_mode", "current mode (0 engaged, 1 fallback)"),
		toFallback:     reg.Counter("supervisor_mode_transitions_total", "mode transitions", telemetry.L("to", "fallback")),
		toEngaged:      reg.Counter("supervisor_mode_transitions_total", "mode transitions", telemetry.L("to", "engaged")),
		fallbackEpochs: reg.Counter("supervisor_fallback_epochs_total", "epochs pinned at the safe configuration"),

		sanitizedIPS:   reg.Counter("supervisor_sanitized_total", "substituted sensor samples", telemetry.L("channel", "ips")),
		sanitizedPower: reg.Counter("supervisor_sanitized_total", "substituted sensor samples", telemetry.L("channel", "power")),

		deadSensorEpochs:  reg.Counter("supervisor_dead_sensor_epochs_total", "epochs with a channel past its staleness limit"),
		innovationAlarms:  reg.Counter("supervisor_innovation_alarms_total", "model-health alarms from the Kalman innovation"),
		divergenceAlarms:  reg.Counter("supervisor_divergence_alarms_total", "model-health alarms from the tracking-error trend"),
		modelHealthAlarms: reg.Counter("supervisor_model_health_alarms_total", "epochs sick on the model-health monitor's fail verdict"),
		illegalConfigs:    reg.Counter("supervisor_illegal_configs_total", "inner-controller outputs that failed validation"),
		applyFailures:     reg.Counter("supervisor_apply_failures_total", "failed Apply attempts reported by the harness"),
		applyRetries:      reg.Counter("supervisor_apply_retries_total", "re-issued actuation requests"),
	}
	const epochsName, epochsHelp = "supervisor_epochs_total", "supervised steps executed"
	if loop != nil {
		reg.CounterFunc(epochsName, epochsHelp, loop.Epochs)
	} else if reg.Enabled() {
		m.epochs = reg.Counter(epochsName, epochsHelp)
	}
	return m
}
