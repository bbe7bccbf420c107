package sim

import (
	"mimoctl/internal/telemetry"
)

// Telemetry instrumentation for the plant. The epoch step is the
// hottest loop in the system (~hundreds of nanoseconds), so the design
// keeps the per-step cost to one nil check and one atomic counter
// increment: everything else — step latency, output gauges, energy
// accumulation — is observed on one epoch in procSampleEvery.
//
// There is no process-wide binding: a Processor drives only the
// instruments BindTelemetry gave it, and an unbound one (the default)
// pays one nil check per step. Processors bound to one registry share
// its instruments, so counters sum over them and gauges report the
// most recent sampled epoch of whichever processor stepped last.

// procSampleEvery is the sampling interval (a power of two) for the
// heavyweight per-epoch observations.
const procSampleEvery = 64

type procMetrics struct {
	epochs       telemetry.Counter
	stepSeconds  telemetry.Histogram
	ips          telemetry.Gauge
	power        telemetry.Gauge
	temp         telemetry.Gauge
	l1mpki       telemetry.Gauge
	l2mpki       telemetry.Gauge
	energyJ      telemetry.FloatCounter
	instructions telemetry.FloatCounter

	dvfsTransitions telemetry.Counter
	cacheResizes    telemetry.Counter
	robResizes      telemetry.Counter
	applyInvalid    telemetry.Counter

	// Trace-driven hierarchy (per-level hit/miss), fed only by the
	// test-side TraceProcessor.
	l1Accesses telemetry.Counter
	l1Misses   telemetry.Counter
	l2Accesses telemetry.Counter
	l2Misses   telemetry.Counter
}

// BindTelemetry binds this processor to a registry. A nil registry
// unbinds it. The energy and instruction counters count from the
// binding on.
func (p *Processor) BindTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		p.met = nil
		return
	}
	p.met = newProcMetrics(reg)
	p.metEnergy0, p.metInstr0 = p.totalEnergyJ, p.totalInstr
}

func newProcMetrics(reg *telemetry.Registry) *procMetrics {
	stepBuckets := telemetry.ExponentialBuckets(50e-9, 2, 14) // 50 ns .. ~400 µs
	return &procMetrics{
		epochs:       reg.Counter("sim_epochs_total", "control epochs executed by the plant"),
		stepSeconds:  reg.Histogram("sim_epoch_step_seconds", "wall time of one epoch step (sampled)", stepBuckets),
		ips:          reg.Gauge("sim_ips_bips", "measured performance of the last sampled epoch (BIPS)"),
		power:        reg.Gauge("sim_power_watts", "measured power of the last sampled epoch (W)"),
		temp:         reg.Gauge("sim_temp_celsius", "die temperature of the last sampled epoch"),
		l1mpki:       reg.Gauge("sim_l1_mpki", "L1 misses per kilo-instruction, last sampled epoch"),
		l2mpki:       reg.Gauge("sim_l2_mpki", "L2 misses per kilo-instruction, last sampled epoch"),
		energyJ:      reg.FloatCounter("sim_energy_joules_total", "energy consumed by the plant"),
		instructions: reg.FloatCounter("sim_instructions_total", "instructions committed by the plant"),

		dvfsTransitions: reg.Counter("sim_dvfs_transitions_total", "frequency changes applied (each stalls 5 µs)"),
		cacheResizes:    reg.Counter("sim_cache_resizes_total", "cache way-gating changes applied"),
		robResizes:      reg.Counter("sim_rob_resizes_total", "reorder-buffer resizes applied"),
		applyInvalid:    reg.Counter("sim_apply_invalid_total", "Apply calls rejected by Config validation"),

		l1Accesses: reg.Counter("sim_cache_accesses_total", "trace-mode cache accesses", telemetry.L("level", "l1")),
		l1Misses:   reg.Counter("sim_cache_misses_total", "trace-mode cache misses", telemetry.L("level", "l1")),
		l2Accesses: reg.Counter("sim_cache_accesses_total", "trace-mode cache accesses", telemetry.L("level", "l2")),
		l2Misses:   reg.Counter("sim_cache_misses_total", "trace-mode cache misses", telemetry.L("level", "l2")),
	}
}
