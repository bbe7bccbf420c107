package experiments

import (
	"fmt"
	"io"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// FaultSweep is a Table-IV-style robustness experiment beyond the
// paper's evaluation: every controller family (MIMO, Heuristic,
// Decoupled) runs under the supervised runtime against each fault class
// of the fault model (internal/sim FaultInjector), plus the raw
// (unsupervised) MIMO controller as the control group. Faults strike a
// window mid-run; the experiment reports tracking quality during the
// fault and after it clears, and what the supervisor did (sanitized
// samples, fallbacks, re-engagements). The paper's robustness argument
// (§I, §VII) is qualitative; this sweep makes it measurable.

// FaultClass is one failure scenario of the sweep. Windows are
// expressed as fractions of the run so the sweep scales with -epochs.
type FaultClass struct {
	Name     string
	Sensor   []sim.SensorFault
	Actuator []sim.ActuatorFault
	Plant    []sim.PlantFault
}

// FaultClasses returns the standard sweep scenarios for a run of the
// given length. The fault window is [epochs/4, epochs*3/8) — active for
// an eighth of the run, then cleared, leaving the second half for
// recovery measurement — except the sparse spike scenario, which stays
// on for the whole run (it strikes only every 97th epoch).
func FaultClasses(epochs int) []FaultClass {
	from, until := epochs/4, epochs*3/8
	return []FaultClass{
		{Name: "sensor-dropout", Sensor: []sim.SensorFault{
			{Kind: sim.FaultDropout, Channel: sim.ChAll, From: from, Until: until}}},
		{Name: "sensor-freeze", Sensor: []sim.SensorFault{
			{Kind: sim.FaultFreeze, Channel: sim.ChAll, From: from, Until: until}}},
		{Name: "sensor-spike", Sensor: []sim.SensorFault{
			{Kind: sim.FaultSpike, Channel: sim.ChAll, Every: 97, Magnitude: 10}}},
		{Name: "sensor-drift", Sensor: []sim.SensorFault{
			{Kind: sim.FaultDrift, Channel: sim.ChPower, From: from, Until: until, Magnitude: 0.002}}},
		{Name: "sensor-nan", Sensor: []sim.SensorFault{
			{Kind: sim.FaultNaN, Channel: sim.ChAll, From: from, Until: until}}},
		{Name: "sensor-inf", Sensor: []sim.SensorFault{
			{Kind: sim.FaultInf, Channel: sim.ChPower, From: from, Until: until}}},
		{Name: "actuator-stuck-freq", Actuator: []sim.ActuatorFault{
			{Kind: sim.ActStuck, Knob: sim.KnobFreq, From: from, Until: until}}},
		{Name: "actuator-apply-error", Actuator: []sim.ActuatorFault{
			{Kind: sim.ActError, From: from, Until: until}}},
		{Name: "actuator-delay", Actuator: []sim.ActuatorFault{
			{Kind: sim.ActDelay, From: from, Until: until, DelayEpochs: 4}}},
		// plant-drift is the adaptation-loop scenario: the plant itself
		// degrades (telemetry stays honest) with output gains ramping
		// across the window — the core runs faster and hotter, with the
		// power inflation beyond the 30% guardband the LQG design was
		// certified for. The degradation persists after the window —
		// aging does not heal — so only re-identification can restore
		// tracking.
		{Name: "plant-drift", Plant: []sim.PlantFault{{
			Kind: sim.PlantGainDrift, From: from, Until: until,
			GainRateIPS: 0.15 / float64(until-from), GainLimitIPS: 1.15,
			GainRatePower: 0.35 / float64(until-from), GainLimitPower: 1.35,
		}, {
			Kind: sim.PlantLagDrift, From: from, Until: until,
			PoleRate: 0.8 / float64(until-from), PoleLimit: 0.8,
		}}},
	}
}

// FaultRow is one (fault class, architecture) cell of the sweep.
type FaultRow struct {
	Class string
	Arch  string
	// FaultPowerErrPct / FaultIPSErrPct are the mean relative tracking
	// errors of the true outputs while the fault is active.
	FaultPowerErrPct, FaultIPSErrPct float64
	// PowerErrPct / IPSErrPct are the same metrics over the final
	// quarter of the run, after the fault cleared: the recovery test.
	PowerErrPct, IPSErrPct float64
	// Supervisor activity (zero for raw controllers).
	Sanitized      int
	Fallbacks      int
	Reengagements  int
	ApplyFailures  int
	FallbackEpochs int
	// AdaptSwaps counts accepted hot-swapped redesigns (zero for every
	// architecture without the adaptation loop).
	AdaptSwaps int
	// IllegalConfigs counts configurations that failed validation at
	// the harness boundary; PlantCorrupt reports a non-finite true
	// plant output — both must stay zero/false for a survivable run.
	IllegalConfigs int
	PlantCorrupt   bool
}

// FaultSweepResult holds the full sweep.
type FaultSweepResult struct {
	Workload string
	Epochs   int
	Rows     []FaultRow
}

// FaultSweepWorkload is the workload the sweep runs on: namd, the same
// training application the controller failure tests use.
const FaultSweepWorkload = "namd"

// FaultSweep runs every architecture against every fault class.
// epochs <= 0 selects 4000.
func FaultSweep(seed int64, epochs int) (*FaultSweepResult, error) {
	if epochs <= 0 {
		epochs = 4000
	}
	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		return nil, err
	}
	mimo, _, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	dec, err := DesignedDecoupled(seed)
	if err != nil {
		return nil, err
	}
	// Preflight the monitored and adaptive architectures once so a
	// construction error surfaces here rather than inside a parallel
	// job; the per-job factory then rebuilds them (each job needs its
	// own monitor, adapter, and controller clone — all three carry run
	// state).
	if _, err := NewMonitoredSupervised(seed); err != nil {
		return nil, err
	}
	if _, err := NewAdaptiveSupervised(seed); err != nil {
		return nil, err
	}
	// One job per (fault class, architecture); each job wraps its own
	// controller clone (and its own supervisor — supervisor health
	// counters are per-run results, so sharing one would corrupt them).
	newCtrl := []func() core.ArchController{
		func() core.ArchController { sup, _ := NewMonitoredSupervised(seed); return sup },
		func() core.ArchController { return bindMIMO(mimo.Clone()) },
		func() core.ArchController { return supervisor.New(NewHeuristicTracker(false), supervisor.Options{}) },
		func() core.ArchController { return supervisor.New(dec.Clone(), supervisor.Options{}) },
		func() core.ArchController { sup, _ := NewAdaptiveSupervised(seed); return sup },
	}
	classes := FaultClasses(epochs)
	rows := make([]FaultRow, len(classes)*len(newCtrl))
	jobs := make([]runner.Job, 0, len(rows))
	for fi, fc := range classes {
		for ci, mk := range newCtrl {
			fi, ci, fc, mk := fi, ci, fc, mk
			jobs = append(jobs, runner.Job{
				Label: fmt.Sprintf("faults/%s/%d", fc.Name, ci),
				Run: func() error {
					row, err := runFaulted(mk(), w, fc, seed, epochs)
					if err != nil {
						return fmt.Errorf("under %s: %w", fc.Name, err)
					}
					rows[fi*len(newCtrl)+ci] = row
					return nil
				},
			})
		}
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &FaultSweepResult{Workload: w.Name(), Epochs: epochs, Rows: rows}
	markFigureDone("faultsweep")
	return res, nil
}

// runFaulted drives one controller against one fault class. Apply
// errors are reported to the controller when it observes actuation
// outcomes (the supervised runtime) and tolerated otherwise — a
// deployed loop cannot abort on a failed knob write.
func runFaulted(ctrl core.ArchController, w sim.Workload, fc FaultClass, seed int64, epochs int) (FaultRow, error) {
	proc, err := newProcessor(w, seed+701)
	if err != nil {
		return FaultRow{}, err
	}
	inj := sim.NewFaultInjector(proc, seed+702)
	for _, sf := range fc.Sensor {
		inj.AddSensorFault(sf)
	}
	for _, af := range fc.Actuator {
		inj.AddActuatorFault(af)
	}
	for _, pf := range fc.Plant {
		inj.AddPlantFault(pf)
	}
	ctrl.Reset()
	ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	rec := attachFlightRec(ctrl, flightrec.Meta{
		Arch: ctrl.Name(), Workload: w.Name(), FaultClass: fc.Name,
		Seed: seed, Epochs: epochs,
		TargetIPS: core.DefaultIPSTarget, TargetPowerW: core.DefaultPowerTarget,
		FreqLevels: len(sim.FreqSettingsGHz), CacheLevels: len(sim.CacheSettings), ROBLevels: len(sim.ROBSettings),
	})
	defer finishFlightRec(rec, ctrl, "faults_"+fc.Name+"_"+ctrl.Name())
	wireLoopObs(ctrl, "faults/"+fc.Name+"/"+ctrl.Name())
	row := FaultRow{Class: fc.Name, Arch: ctrl.Name()}
	applyObs, observes := ctrl.(supervisor.ApplyObserver)

	faultFrom, faultUntil := epochs/4, epochs*3/8
	recoverFrom := epochs * 3 / 4
	var fSumP, fSumI float64
	var rSumP, rSumI float64
	fN, rN := 0, 0

	tel := inj.Step()
	for k := 0; k < epochs; k++ {
		cfg := ctrl.Step(tel)
		if err := cfg.Validate(); err != nil {
			row.IllegalConfigs++
			cfg = tel.Config
		}
		aerr := inj.Apply(cfg)
		if observes {
			applyObs.ObserveApply(cfg, aerr)
		}
		tel = inj.Step()
		if math.IsNaN(tel.TrueIPS) || math.IsInf(tel.TrueIPS, 0) ||
			math.IsNaN(tel.TruePowerW) || math.IsInf(tel.TruePowerW, 0) {
			row.PlantCorrupt = true
		}
		eP := math.Abs(tel.TruePowerW-core.DefaultPowerTarget) / core.DefaultPowerTarget
		eI := math.Abs(tel.TrueIPS-core.DefaultIPSTarget) / core.DefaultIPSTarget
		if k >= faultFrom && k < faultUntil {
			fSumP += eP
			fSumI += eI
			fN++
		}
		if k >= recoverFrom {
			rSumP += eP
			rSumI += eI
			rN++
		}
	}
	countEpochs(epochs)
	if fN > 0 {
		row.FaultPowerErrPct = 100 * fSumP / float64(fN)
		row.FaultIPSErrPct = 100 * fSumI / float64(fN)
	}
	if rN > 0 {
		row.PowerErrPct = 100 * rSumP / float64(rN)
		row.IPSErrPct = 100 * rSumI / float64(rN)
	}
	if sup, ok := ctrl.(*supervisor.Supervised); ok {
		h := sup.Health()
		row.Sanitized = h.SanitizedIPS + h.SanitizedPower
		row.Fallbacks = h.Fallbacks
		row.Reengagements = h.Reengagements
		row.ApplyFailures = h.ApplyFailures
		row.FallbackEpochs = h.FallbackEpochs
		if ad := sup.Adapter(); ad != nil {
			row.AdaptSwaps = ad.Stats().Swaps
		}
	}
	return row, nil
}

// Row returns the sweep cell for (class, arch), or nil.
func (r *FaultSweepResult) Row(class, arch string) *FaultRow {
	for i := range r.Rows {
		if r.Rows[i].Class == class && r.Rows[i].Arch == arch {
			return &r.Rows[i]
		}
	}
	return nil
}

// WriteText renders the sweep grouped by fault class.
func (r *FaultSweepResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Fault sweep on %s (%d epochs; fault window epochs %d-%d; recovery measured from epoch %d)\n",
		r.Workload, r.Epochs, r.Epochs/4, r.Epochs*3/8, r.Epochs*3/4)
	fmt.Fprintln(w, "errors are mean |true output - target| / target; recovery target band is 15% power")
	cur := ""
	var rows [][]string
	flush := func() {
		if len(rows) > 0 {
			writeTable(w, []string{"arch", "fault P err", "fault IPS err", "recov P err", "recov IPS err", "sanitized", "fallbacks", "reengaged", "swaps", "survived"}, rows)
			rows = nil
		}
	}
	for _, row := range r.Rows {
		if row.Class != cur {
			flush()
			cur = row.Class
			fmt.Fprintf(w, "\n[%s]\n", cur)
		}
		survived := "yes"
		if row.PlantCorrupt || row.IllegalConfigs > 0 {
			survived = "NO"
		}
		rows = append(rows, []string{
			row.Arch,
			fmt.Sprintf("%.1f%%", row.FaultPowerErrPct),
			fmt.Sprintf("%.1f%%", row.FaultIPSErrPct),
			fmt.Sprintf("%.1f%%", row.PowerErrPct),
			fmt.Sprintf("%.1f%%", row.IPSErrPct),
			itoa(row.Sanitized),
			itoa(row.Fallbacks),
			itoa(row.Reengagements),
			itoa(row.AdaptSwaps),
			survived,
		})
	}
	flush()
}
