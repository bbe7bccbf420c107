package obs

// The reference SLO evaluator: the modulo-per-window evaluator kept
// verbatim (renamed) as the oracle TestSLOEvalMatchesReference holds
// sloEval against, epoch by epoch.

// refSLOEval is the reference online evaluator of one Spec for one
// loop: a bad-flag ring sized to the longest window with incrementally
// maintained per-window bad counts, finding each window's leaving epoch
// with a modulo and recomputing every burn rate every epoch.
type refSLOEval struct {
	spec   Spec
	budget float64

	ring []uint8 // bad flags, capacity = longest window
	pos  int     // next write index
	seen int     // epochs observed, capped at len(ring)

	winBad []int // bad count within each window

	totalBad    uint64
	totalEpochs uint64

	alerting bool
	burning  bool
	// worstBurn is the maximum burn rate across windows after the
	// last observe (the per-loop burn gauge).
	worstBurn float64
}

func newRefSLOEval(spec Spec) *refSLOEval {
	maxW := 1
	for _, w := range spec.Windows {
		if w.Epochs > maxW {
			maxW = w.Epochs
		}
	}
	return &refSLOEval{
		spec:   spec,
		budget: spec.errBudget(),
		ring:   make([]uint8, maxW),
		winBad: make([]int, len(spec.Windows)),
	}
}

// observe folds one epoch's badness in and refreshes the verdicts.
func (e *refSLOEval) observe(bad bool) {
	v := uint8(0)
	if bad {
		v = 1
		e.totalBad++
	}
	e.totalEpochs++
	n := len(e.ring)
	for i, w := range e.spec.Windows {
		e.winBad[i] += int(v)
		if e.seen >= w.Epochs {
			// The epoch leaving window i is w.Epochs back from the
			// write position.
			e.winBad[i] -= int(e.ring[(e.pos+n-w.Epochs)%n])
		}
	}
	e.ring[e.pos] = v
	e.pos = (e.pos + 1) % n
	if e.seen < n {
		e.seen++
	}

	e.burning, e.alerting = false, len(e.spec.Windows) > 0
	e.worstBurn = 0
	for i, w := range e.spec.Windows {
		burn := e.burn(i, w)
		if burn >= w.MaxBurn {
			e.burning = true
		} else {
			e.alerting = false
		}
		if burn > e.worstBurn {
			e.worstBurn = burn
		}
	}
}

// burn returns the burn rate of window i.
func (e *refSLOEval) burn(i int, w Window) float64 {
	span := w.Epochs
	if e.seen < span {
		span = e.seen
	}
	if span == 0 {
		return 0
	}
	return (float64(e.winBad[i]) / float64(span)) / e.budget
}

// status snapshots the evaluator.
func (e *refSLOEval) status() SLOStatus {
	st := SLOStatus{
		Name:        e.spec.Name,
		Signal:      e.spec.Signal.String(),
		Objective:   e.spec.Objective,
		BadEpochs:   e.totalBad,
		TotalEpochs: e.totalEpochs,
		Windows:     make([]WindowStatus, len(e.spec.Windows)),
		Alerting:    e.alerting,
	}
	for i, w := range e.spec.Windows {
		b := e.burn(i, w)
		st.Windows[i] = WindowStatus{Epochs: w.Epochs, Burn: b, MaxBurn: w.MaxBurn, Burning: b >= w.MaxBurn}
		if b > st.WorstBurn {
			st.WorstBurn = b
		}
	}
	return st
}
