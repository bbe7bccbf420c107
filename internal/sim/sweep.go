package sim

// Totals is what a run consumed and committed: energy in joules,
// instructions, and wall-clock seconds.
type Totals struct {
	EnergyJ, Instructions, Seconds float64
}

// StaticSweep runs every configuration of cfgs, each held fixed, on the
// workload w under opts and seed, and returns each one's totals over
// the measured epochs that follow the settle epochs. Totals[i] is
// bit-identical to running cfgs[i] on a processor of its own:
//
//	p, _ := NewProcessor(w, opts, seed)
//	p.Apply(cfgs[i])
//	for range settle { p.Step() }
//	p.ResetTotals()
//	for range epochs { p.Step() }
//	p.Totals()
//
// A held configuration does not change what a (workload, seed) draws:
// every epoch reads the same phase parameters, the same AR(1)
// fluctuation and the same two sensor normals whatever the knobs are.
// So one processor runs cfgs[0], and each epoch its step reads the
// phase, draws the fluctuation and the sensor noise and refreshes the
// response surface; every other configuration's state then advances
// from the same fluctuated parameters and surface. Non-positive settle
// or epochs run no epochs.
func StaticSweep(w Workload, opts ProcessorOptions, seed int64, cfgs []Config, settle, epochs int) ([]Totals, error) {
	p, err := NewProcessor(w, opts, seed)
	if err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]Totals, len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	others := make([]configState, len(cfgs)-1)
	for i := range others {
		others[i] = p.configState
		others[i].apply(cfgs[i+1])
	}
	p.configState.apply(cfgs[0])

	p.sweepEpochs(others, settle)
	p.configState.resetTotals()
	for i := range others {
		others[i].resetTotals()
	}
	p.sweepEpochs(others, epochs)

	out[0] = p.configState.totals()
	for i, s := range others {
		out[i+1] = s.totals()
	}
	return out, nil
}

// sweepEpochs steps p n epochs, advancing every state of others in
// lockstep from the parameters and surface each step leaves behind.
func (p *Processor) sweepEpochs(others []configState, n int) {
	var t Telemetry
	var perf PerfResult
	var pw PowerResult
	for e := 0; e < n; e++ {
		params, phaseID := p.workload.Params(p.epoch)
		p.stepCore(&params, phaseID, &t)
		for i := range others {
			others[i].advance(&p.surf, &params, &perf, &pw)
		}
	}
}
