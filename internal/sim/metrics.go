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
// most recent sampled epoch of whichever processor stepped last. A
// bound Lockstep bank counts as its members would, one processor each.

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
}

// BindTelemetry binds this processor to a registry. A nil registry
// unbinds it. The energy and instruction counters count from the
// binding on.
func (p *Processor) BindTelemetry(reg *telemetry.Registry) {
	p.met = newProcMetrics(reg)
	p.markCounted()
}

// BindTelemetry binds the bank to a registry under the rules of
// Processor.BindTelemetry; a bound bank of N members drives the
// instruments as N bound processors would (see Lockstep).
func (l *Lockstep) BindTelemetry(reg *telemetry.Registry) {
	l.met = newProcMetrics(reg)
	l.lead.markCounted()
	for i := range l.others {
		l.others[i].markCounted()
	}
}

// markCounted marks s's totals as added to the energy and instruction
// counters.
func (s *configState) markCounted() {
	s.metEnergy0, s.metInstr0 = s.totalEnergyJ, s.totalInstr
}

// sample records one sampled epoch of the plant whose telemetry is t
// and whose state is s: the output gauges, and the energy and
// instructions s accumulated since it was last sampled.
func (m *procMetrics) sample(t *Telemetry, s *configState) {
	m.ips.Set(t.IPS)
	m.power.Set(t.PowerW)
	m.temp.Set(t.TempC)
	m.l1mpki.Set(t.L1MPKI)
	m.l2mpki.Set(t.L2MPKI)
	m.energyJ.Add(s.totalEnergyJ - s.metEnergy0)
	m.instructions.Add(s.totalInstr - s.metInstr0)
	s.markCounted()
}

// newProcMetrics returns reg's plant instruments, nil when reg is not
// enabled.
func newProcMetrics(reg *telemetry.Registry) *procMetrics {
	if !reg.Enabled() {
		return nil
	}
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
	}
}
