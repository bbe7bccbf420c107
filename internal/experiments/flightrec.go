package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Flight-recorder plumbing for the experiment harness: an opt-in global
// switch that attaches a recorder to every Recordable controller a Run*
// helper drives, dumping each run to a directory — the CI hook that
// preserves the evidence when a fault-sweep assertion fails — plus
// RecordedRun/ReplayRecorded, the deterministic capture/replay pair
// cmd/mimodoctor is built on. Recording is off by default and observes
// without perturbing: golden outputs are byte-identical either way.

// harnessRingCapacity is the ring size of the harness-wide recorders:
// a dump holds the last 2048 epochs of its run.
const harnessRingCapacity = 2048

var (
	frMu  sync.Mutex
	frDir string // "" when harness-wide recording is off
	frSeq int
)

// SetFlightRecording turns harness-wide recording on with dir as the
// dump directory, or off with "": every Recordable controller driven by
// RunTracking, RunEnergy and the fault sweep then keeps a ring of its
// last harnessRingCapacity epochs, dumped into dir (binary format,
// .frec) when its run ends.
func SetFlightRecording(dir string) {
	frMu.Lock()
	frDir = dir
	frSeq = 0
	frMu.Unlock()
}

// attachFlightRec attaches a fresh recorder to ctrl when recording is
// on and the controller supports it; returns nil otherwise.
func attachFlightRec(ctrl core.ArchController, meta flightrec.Meta) *flightrec.Recorder {
	frMu.Lock()
	on := frDir != ""
	frMu.Unlock()
	if !on {
		return nil
	}
	rc, ok := ctrl.(flightrec.Recordable)
	if !ok {
		return nil
	}
	rec := flightrec.New(harnessRingCapacity)
	rec.SetMeta(meta)
	rc.SetFlightRecorder(rec)
	return rec
}

// finishFlightRec detaches and writes the run's recording into the dump
// directory as <label>_<seq>.frec.
func finishFlightRec(rec *flightrec.Recorder, ctrl core.ArchController, label string) {
	if rec == nil {
		return
	}
	if rc, ok := ctrl.(flightrec.Recordable); ok {
		rc.SetFlightRecorder(nil)
	}
	frMu.Lock()
	dir := frDir
	frSeq++
	seq := frSeq
	frMu.Unlock()
	if dir == "" {
		// Recording was switched off while the run was in flight.
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

// RecordedRun drives one fault scenario through the fault sweep's loop
// (driveFaulted) with its own flight recorder attached and returns the
// recorder; it registers no fleet loop and the harness-wide recorder
// never replaces its own. A recording is exactly reproducible from its
// Meta alone: same arch, class, seed, epochs, and capacity yield a
// byte-identical ring — the property ReplayRecorded and `mimodoctor
// -replay` verify — and it holds the records the sweep's harness
// recorder writes for the same run.
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
	defer ctrl.(flightrec.Recordable).SetFlightRecorder(nil)
	if _, err := driveFaulted(ctrl, w, fc, seed, epochs, tgtIPS, tgtPow); err != nil {
		return nil, err
	}
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
