package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// Flight-recorder plumbing for the experiment harness: an opt-in global
// switch that attaches a recorder to every Recordable controller a Run*
// helper drives, dumping each run to a directory — the CI hook that
// preserves the evidence when a fault-sweep assertion fails — plus
// RecordedRun/ReplayRecorded, the deterministic capture/replay pair
// cmd/mimodoctor is built on. Recording is off by default and observes
// without perturbing: golden outputs are byte-identical either way.

// FlightRecConfig is the harness-wide recording switch.
type FlightRecConfig struct {
	// Enabled attaches a recorder to every Recordable controller driven
	// by RunTracking, RunEnergy, and the fault sweep.
	Enabled bool
	// Dir, when non-empty, receives one dump file per recorded run
	// (binary format, .frec).
	Dir string
	// Capacity is the ring size (default 2048 records = 2048 epochs).
	Capacity int
}

var (
	frMu  sync.Mutex
	frCfg FlightRecConfig
	frSeq int
)

// SetFlightRecording installs the harness-wide recording configuration.
func SetFlightRecording(cfg FlightRecConfig) {
	frMu.Lock()
	frCfg = cfg
	frSeq = 0
	frMu.Unlock()
}

// attachFlightRec attaches a fresh recorder to ctrl when recording is
// enabled and the controller supports it; returns nil otherwise.
func attachFlightRec(ctrl core.ArchController, meta flightrec.Meta) *flightrec.Recorder {
	frMu.Lock()
	cfg := frCfg
	frMu.Unlock()
	if !cfg.Enabled {
		return nil
	}
	rc, ok := ctrl.(flightrec.Recordable)
	if !ok {
		return nil
	}
	cap := cfg.Capacity
	if cap <= 0 {
		cap = 2048
	}
	rec := flightrec.New(cap)
	rec.SetMeta(meta)
	rc.SetFlightRecorder(rec)
	return rec
}

// finishFlightRec detaches and, when a dump directory is configured,
// writes the run's recording as <label>_<seq>.frec.
func finishFlightRec(rec *flightrec.Recorder, ctrl core.ArchController, label string) {
	if rec == nil {
		return
	}
	if rc, ok := ctrl.(flightrec.Recordable); ok {
		rc.SetFlightRecorder(nil)
	}
	frMu.Lock()
	dir := frCfg.Dir
	frSeq++
	seq := frSeq
	frMu.Unlock()
	if dir == "" {
		return
	}
	name := fmt.Sprintf("%s_%03d.frec", sanitizeLabel(label), seq)
	// A dump failure must not fail the run it observes.
	_ = rec.WriteFile(filepath.Join(dir, name), "run-complete")
}

// trackingMeta builds the recording identity for a Run* helper.
func trackingMeta(ctrl core.ArchController, w sim.Workload, seed int64, epochs int) flightrec.Meta {
	ips, pow := ctrl.Targets()
	return flightrec.Meta{
		Arch: ctrl.Name(), Workload: w.Name(),
		Seed: seed, Epochs: epochs,
		TargetIPS: ips, TargetPowerW: pow,
		FreqLevels: len(sim.FreqSettingsGHz), CacheLevels: len(sim.CacheSettings), ROBLevels: len(sim.ROBSettings),
	}
}

// sanitizeLabel maps a run label to a safe file-name stem.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}

// InfeasibleTargetClass is the extra RecordedRun scenario beyond the
// fault sweep: no injected fault at all, just references the plant
// cannot reach (both outputs far above any configuration's envelope),
// driving the knobs into a pinned corner.
const InfeasibleTargetClass = "infeasible-target"

// infeasibleIPS/infeasiblePowerW are the unreachable references.
const (
	infeasibleIPS    = 6.0
	infeasiblePowerW = 6.0
)

// FaultClassByName resolves a RecordedRun scenario name: any
// FaultClasses entry, "none" (or "") for a clean run, or
// InfeasibleTargetClass.
func FaultClassByName(name string, epochs int) (FaultClass, bool) {
	switch name {
	case "", "none":
		return FaultClass{Name: "none"}, true
	case InfeasibleTargetClass:
		return FaultClass{Name: InfeasibleTargetClass}, true
	}
	for _, fc := range FaultClasses(epochs) {
		if fc.Name == name {
			return fc, true
		}
	}
	return FaultClass{}, false
}

// RecordedArchs are the controller architectures RecordedRun accepts.
func RecordedArchs() []string { return []string{"mimo", "supervised", "adaptive"} }

// RecordedRun drives one fault scenario with a flight recorder attached
// and returns the recorder. The loop is the fault sweep's (same seeds,
// same ordering of random draws), so a recording is exactly
// reproducible from its Meta alone: same arch, class, seed, epochs, and
// capacity yield a byte-identical ring — the property ReplayRecorded
// and `mimodoctor -replay` verify.
func RecordedRun(arch, class string, seed int64, epochs, capacity int) (*flightrec.Recorder, error) {
	if epochs <= 0 {
		epochs = 2000
	}
	if capacity <= 0 {
		capacity = epochs
	}
	fc, ok := FaultClassByName(class, epochs)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown fault class %q", class)
	}
	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		return nil, err
	}
	mimo, _, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	var ctrl core.ArchController
	switch arch {
	case "mimo":
		ctrl = bindMIMO(mimo.Clone())
	case "supervised":
		ctrl, err = NewMonitoredSupervised(seed)
		if err != nil {
			return nil, err
		}
	case "adaptive":
		ctrl, err = NewAdaptiveSupervised(seed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q (want one of %v)", arch, RecordedArchs())
	}
	tgtIPS, tgtPow := core.DefaultIPSTarget, core.DefaultPowerTarget
	if fc.Name == InfeasibleTargetClass {
		tgtIPS, tgtPow = infeasibleIPS, infeasiblePowerW
	}

	rec := flightrec.New(capacity)
	rec.SetMeta(flightrec.Meta{
		Arch:         arch,
		Workload:     FaultSweepWorkload,
		FaultClass:   fc.Name,
		Seed:         seed,
		Epochs:       epochs,
		TargetIPS:    tgtIPS,
		TargetPowerW: tgtPow,
		FreqLevels:   len(sim.FreqSettingsGHz),
		CacheLevels:  len(sim.CacheSettings),
		ROBLevels:    len(sim.ROBSettings),
	})
	ctrl.(flightrec.Recordable).SetFlightRecorder(rec)

	// The loop below mirrors runFaulted exactly (processor seed+701,
	// injector seed+702, step/apply/step ordering) so the random streams
	// line up with the sweep.
	proc, err := newProcessor(w, seed+701)
	if err != nil {
		return nil, err
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
	ctrl.SetTargets(tgtIPS, tgtPow)
	obs, observes := ctrl.(supervisor.ApplyObserver)
	tel := inj.Step()
	for k := 0; k < epochs; k++ {
		cfg := ctrl.Step(tel)
		if err := cfg.Validate(); err != nil {
			cfg = tel.Config
		}
		aerr := inj.Apply(cfg)
		if observes {
			obs.ObserveApply(cfg, aerr)
		}
		tel = inj.Step()
	}
	countEpochs(epochs)
	ctrl.(flightrec.Recordable).SetFlightRecorder(nil)
	return rec, nil
}

// ReplayRecorded re-runs the scenario a dump's Meta describes and
// returns the freshly recorded ring for comparison against the dump.
func ReplayRecorded(meta flightrec.Meta) (*flightrec.Recorder, error) {
	if meta.Seed == 0 && meta.Arch == "" {
		return nil, fmt.Errorf("experiments: dump carries no replay identity (meta is empty)")
	}
	return RecordedRun(meta.Arch, meta.FaultClass, meta.Seed, meta.Epochs, meta.Capacity)
}
