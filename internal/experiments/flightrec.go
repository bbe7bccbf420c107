package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// Flight-recorder plumbing for the experiment harness: an opt-in global
// switch that records every run a Run* helper or the fault sweep
// drives, each member of a row its own run, dumping each to a directory
// — the CI hook that preserves the evidence when a fault-sweep
// assertion fails — plus RecordedRun/ReplayRecorded, the deterministic
// capture/replay pair cmd/mimodoctor is built on. A supervised loop's
// records are its supervisor's; the loops that step the others
// (stepRow, driveFaulted) write theirs with core.FillEvent. Recording
// is off by default and observes without perturbing: golden outputs
// are byte-identical either way.

// harnessRingCapacity is the ring size of the harness-wide recorders:
// a dump holds the last 2048 epochs of its run.
const harnessRingCapacity = 2048

var (
	frMu  sync.Mutex
	frDir string // "" when harness-wide recording is off
	frSeq int
)

// SetFlightRecording turns harness-wide recording on with dir as the
// dump directory, or off with "": every run driven by RunTracking,
// RunEnergy and the fault sweep then keeps a ring of its last
// harnessRingCapacity epochs, dumped into dir (binary format, .frec)
// when its run ends.
func SetFlightRecording(dir string) {
	frMu.Lock()
	frDir = dir
	frSeq = 0
	frMu.Unlock()
}

// attachFlightRec returns a fresh recorder for ctrl's run when
// recording is on (nil otherwise) and the one the loop stepping ctrl
// writes (see recordTo).
func attachFlightRec(ctrl core.ArchController, meta flightrec.Meta) (rec, drive *flightrec.Recorder) {
	frMu.Lock()
	on := frDir != ""
	frMu.Unlock()
	if !on {
		return nil, nil
	}
	rec = flightrec.New(harnessRingCapacity)
	rec.SetMeta(meta)
	return rec, recordTo(ctrl, rec)
}

// recordTo makes rec the recorder of ctrl's run (nil detaches) and
// returns the one the loop stepping ctrl writes each epoch with
// core.FillEvent: rec, or nil for a supervised loop, whose supervisor
// writes its own records.
func recordTo(ctrl core.ArchController, rec *flightrec.Recorder) *flightrec.Recorder {
	if sup, ok := ctrl.(*supervisor.Supervised); ok {
		sup.SetFlightRecorder(rec)
		return nil
	}
	return rec
}

// record writes the harness's record of ctrl's epoch, which stepped on
// tel and returned cfg, to rec; a nil rec records nothing.
func record(rec *flightrec.Recorder, ctrl core.ArchController, cfg sim.Config, tel *sim.Telemetry) {
	if rec != nil {
		var ev obs.Event
		core.FillEvent(&ev, ctrl, cfg, tel)
		rec.Append(&ev)
	}
}

// finishFlightRec detaches and writes the run's recording into the dump
// directory as <label>_<seq>.frec.
func finishFlightRec(rec *flightrec.Recorder, ctrl core.ArchController, label string) {
	if rec == nil {
		return
	}
	recordTo(ctrl, nil)
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

// runMeta is the recording identity of one harness run.
func runMeta(arch, workload, class string, seed int64, epochs int, ips, power float64) flightrec.Meta {
	return flightrec.Meta{
		Arch: arch, Workload: workload, FaultClass: class,
		Seed: seed, Epochs: epochs,
		TargetIPS: ips, TargetPowerW: power,
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
	rec.SetMeta(runMeta(arch, FaultSweepWorkload, fc.Name, seed, epochs, tgtIPS, tgtPow))
	if _, err := driveFaulted(ctrl, recordTo(ctrl, rec), w, fc, seed, epochs, tgtIPS, tgtPow); err != nil {
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
