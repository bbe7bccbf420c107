package sim

import (
	"errors"
	"time"
)

// Totals is what a run consumed and committed: energy in joules,
// instructions, and wall-clock seconds.
type Totals struct {
	EnergyJ, Instructions, Seconds float64
}

// Lockstep is a bank of N plants of one (workload, options, seed), its
// members, stepped together. Nothing a plant draws depends on its
// knobs: every epoch reads the same phase parameters, the same AR(1)
// fluctuation and the same two sensor normals whatever the
// configuration is. So member 0 is a Processor whose step reads the
// phase, draws and exponentiates the fluctuation, refreshes the
// response surface and draws the sensor noise, and every other member
// keeps only its configuration state, which advances from the
// parameters, surface and noise that step leaves behind and fills its
// own Telemetry. Member i is bit-identical to a Processor of its own
// built with the same arguments and driven with the same Apply calls.
//
// Bound to a registry, the bank drives the plant instruments as N bound
// processors would: sim_epochs_total rises by N per epoch and each
// member's Apply counts its own transitions and rejections. On every
// procSampleEvery-th epoch the bank times its whole epoch and observes
// that time over N once per member, and each member in turn sets the
// output gauges and adds its energy and instructions.
type Lockstep struct {
	lead   *Processor    // member 0, never bound itself
	others []configState // members 1..N-1
	tels   []Telemetry
	met    *procMetrics
}

// NewLockstep builds a bank of n ≥ 1 members, each a plant running w
// from the midrange configuration under opts and seed.
func NewLockstep(w Workload, opts ProcessorOptions, seed int64, n int) (*Lockstep, error) {
	l, err := newBank(w, opts, seed, n)
	if err != nil {
		return nil, err
	}
	l.tels = make([]Telemetry, n)
	return l, nil
}

// newBank is NewLockstep without the members' Telemetry: its unbound
// Step fills none past member 0's scratch and returns nil, for a
// caller that reads only the totals.
func newBank(w Workload, opts ProcessorOptions, seed int64, n int) (*Lockstep, error) {
	if n < 1 {
		return nil, errors.New("sim: a bank needs at least one member")
	}
	lead, err := NewProcessor(w, opts, seed)
	if err != nil {
		return nil, err
	}
	l := &Lockstep{lead: lead, others: make([]configState, n-1)}
	for i := range l.others {
		l.others[i] = initialConfigState()
	}
	return l, nil
}

// member returns member i's configuration state.
func (l *Lockstep) member(i int) *configState {
	if i == 0 {
		return &l.lead.configState
	}
	return &l.others[i-1]
}

// Apply changes member i's knob settings as Processor.Apply does.
func (l *Lockstep) Apply(i int, cfg Config) error {
	return l.member(i).applyCounted(cfg, l.met)
}

// Step executes one epoch of every member and returns their telemetry,
// member i's at index i. The slice is the bank's own: the next Step
// overwrites it.
func (l *Lockstep) Step() []Telemetry {
	params, phaseID := l.lead.workload.Params(l.lead.epoch)
	m := l.met
	if m == nil {
		l.stepCore(&params, phaseID)
		return l.tels
	}
	n := 1 + len(l.others)
	m.epochs.Add(uint64(n))
	if l.lead.epoch%procSampleEvery != 0 {
		l.stepCore(&params, phaseID)
		return l.tels
	}
	t0 := time.Now()
	l.stepCore(&params, phaseID)
	share := time.Since(t0).Seconds() / float64(n)
	for i := range l.tels {
		m.stepSeconds.Observe(share)
		m.sample(&l.tels[i], l.member(i))
	}
	return l.tels
}

// stepCore is the uninstrumented bank epoch: member 0's Processor step,
// then every other member's advance from what it left behind.
func (l *Lockstep) stepCore(params *PhaseParams, phaseID int) {
	epoch, tels := l.lead.epoch, l.tels
	var scratch Telemetry
	t := &scratch
	if tels != nil {
		t = &tels[0]
	}
	noise := l.lead.stepCore(params, phaseID, t)
	surf, others := &l.lead.surf, l.others
	var perf PerfResult
	var pw PowerResult
	for i := range others {
		s := &others[i]
		s.advance(surf, params, &perf, &pw)
		if tels != nil {
			t := &tels[1+i]
			s.report(t, &perf, &pw, epoch, phaseID)
			noise.apply(t)
		}
	}
}

// Totals returns member i's cumulative totals, as Processor.Totals.
func (l *Lockstep) Totals(i int) Totals { return l.member(i).totals() }

// ResetTotals clears every member's cumulative counters (not the
// dynamic state).
func (l *Lockstep) ResetTotals() {
	l.lead.ResetTotals()
	for i := range l.others {
		l.others[i].resetTotals()
	}
}

// StaticSweep runs every configuration of cfgs, each held fixed, on the
// workload w under opts and seed, and returns each one's totals over
// the measured epochs that follow the settle epochs. It is a Lockstep
// bank with one member per configuration that fills no Telemetry (the
// sweep reads only the totals), so Totals[i] is bit-identical to
// running cfgs[i] on a processor of its own:
//
//	p, _ := NewProcessor(w, opts, seed)
//	p.Apply(cfgs[i])
//	for range settle { p.Step() }
//	p.ResetTotals()
//	for range epochs { p.Step() }
//	p.Totals() // the tests' accessor (export_test.go)
//
// Non-positive settle or epochs run no epochs.
func StaticSweep(w Workload, opts ProcessorOptions, seed int64, cfgs []Config, settle, epochs int) ([]Totals, error) {
	if len(cfgs) == 0 {
		if w == nil {
			return nil, errNoWorkload
		}
		return []Totals{}, nil
	}
	l, err := newBank(w, opts, seed, len(cfgs))
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		if err := l.Apply(i, cfg); err != nil {
			return nil, err
		}
	}
	for e := 0; e < settle; e++ {
		l.Step()
	}
	l.ResetTotals()
	for e := 0; e < epochs; e++ {
		l.Step()
	}
	out := make([]Totals, len(cfgs))
	for i := range out {
		out[i] = l.Totals(i)
	}
	return out, nil
}
