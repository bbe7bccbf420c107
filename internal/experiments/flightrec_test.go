package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/workloads"
)

// TestMain wires the CI evidence hook: when FLIGHTREC_DUMP_DIR is set,
// every recordable run in the package's tests leaves a flight-recorder
// dump there, so a failing experiments job uploads the controller's
// last epochs as an artifact instead of just an assertion message.
func TestMain(m *testing.M) {
	if dir := os.Getenv("FLIGHTREC_DUMP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			SetFlightRecording(dir)
		}
	}
	os.Exit(m.Run())
}

// TestRecordedRunDeterministic is the dump-trustworthiness contract:
// the same (arch, class, seed, epochs, capacity) identity reproduces a
// byte-identical ring, including when the ring wrapped.
func TestRecordedRunDeterministic(t *testing.T) {
	for _, tc := range []struct {
		arch     string
		class    string
		capacity int
	}{
		{"mimo", "sensor-freeze", 1024},
		{"mimo", "none", 512}, // capacity < epochs: wrapped ring
		{"supervised", "actuator-apply-error", 1024},
	} {
		a, err := RecordedRun(tc.arch, tc.class, DefaultSeed, 1000, tc.capacity)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.arch, tc.class, err)
		}
		b, err := ReplayRecorded(a.Meta())
		if err != nil {
			t.Fatalf("%s/%s replay: %v", tc.arch, tc.class, err)
		}
		if !bytes.Equal(flightrec.EncodeRecords(a.Snapshot()), flightrec.EncodeRecords(b.Snapshot())) {
			t.Errorf("%s/%s: replay is not byte-identical", tc.arch, tc.class)
		}
	}
}

// TestRecordedRunMatchesSweepRecording holds RecordedRun to the fault
// sweep's loop: for the same class, architecture, seed and epochs its
// ring encodes to the records the sweep's harness recorder dumps.
// Harness recording and a fleet stay attached while RecordedRun runs:
// it keeps its own recorder (the harness writes no second dump) and
// registers no fleet loop.
func TestRecordedRunMatchesSweepRecording(t *testing.T) {
	prev := func() string { frMu.Lock(); defer frMu.Unlock(); return frDir }()
	defer SetFlightRecording(prev)
	defer SetObservability(nil)
	const epochs = 800
	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	mimo, _, err := DesignedMIMO(false, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arch, class string
		sweepCtrl   func() (core.ArchController, error)
	}{
		{"mimo", "sensor-freeze", func() (core.ArchController, error) { return bindMIMO(mimo.Clone()), nil }},
		{"supervised", "actuator-apply-error", func() (core.ArchController, error) { return NewMonitoredSupervised(DefaultSeed) }},
		{"adaptive", "plant-drift", func() (core.ArchController, error) { return NewAdaptiveSupervised(DefaultSeed) }},
	} {
		dir := t.TempDir()
		SetFlightRecording(dir)
		fc, ok := FaultClassByName(tc.class, epochs)
		if !ok {
			t.Fatalf("unknown class %q", tc.class)
		}
		ctrl, err := tc.sweepCtrl()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runFaulted(ctrl, w, fc, DefaultSeed, epochs); err != nil {
			t.Fatalf("%s/%s sweep: %v", tc.arch, tc.class, err)
		}
		dumps, err := filepath.Glob(filepath.Join(dir, "*.frec"))
		if err != nil || len(dumps) != 1 {
			t.Fatalf("%s/%s: sweep left dumps %v (%v), want one", tc.arch, tc.class, dumps, err)
		}
		_, sweep, err := flightrec.ReadDumpFile(dumps[0])
		if err != nil {
			t.Fatal(err)
		}

		fleet := obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry()})
		SetObservability(fleet)
		rec, err := RecordedRun(tc.arch, tc.class, DefaultSeed, epochs, epochs)
		SetObservability(nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.arch, tc.class, err)
		}
		if after, _ := filepath.Glob(filepath.Join(dir, "*.frec")); len(after) != 1 {
			t.Errorf("%s/%s: the harness recorder dumped RecordedRun's run: %v", tc.arch, tc.class, after)
		}
		if n := len(fleet.Report("").Rows); n != 0 {
			t.Errorf("%s/%s: RecordedRun registered %d fleet loops", tc.arch, tc.class, n)
		}
		if rec.Len() != epochs {
			t.Errorf("%s/%s: RecordedRun's recorder holds %d records, want %d", tc.arch, tc.class, rec.Len(), epochs)
		}
		if !bytes.Equal(flightrec.EncodeRecords(rec.Snapshot()), flightrec.EncodeRecords(sweep)) {
			t.Errorf("%s/%s: RecordedRun's records differ from the sweep's", tc.arch, tc.class)
		}
	}
}

func TestRecordedRunRejectsUnknownIdentity(t *testing.T) {
	if _, err := RecordedRun("mimo", "no-such-fault", DefaultSeed, 100, 0); err == nil {
		t.Error("unknown fault class accepted")
	}
	if _, err := RecordedRun("warp-drive", "none", DefaultSeed, 100, 0); err == nil {
		t.Error("unknown arch accepted")
	}
	if _, err := ReplayRecorded(flightrec.Meta{}); err == nil {
		t.Error("empty meta accepted for replay")
	}
}

// TestDoctorClassifiesFaults is the acceptance criterion: from a dump
// alone, the diagnoser separates a clean run, a frozen sensor, a stuck
// actuator, and an unreachable reference.
func TestDoctorClassifiesFaults(t *testing.T) {
	cases := []struct {
		class string
		want  health.Cause
	}{
		{"none", health.CauseHealthy},
		{"sensor-freeze", health.CauseSensorFault},
		{"sensor-nan", health.CauseSensorFault},
		{"actuator-stuck-freq", health.CauseActuatorFault},
		{InfeasibleTargetClass, health.CauseInfeasibleReference},
	}
	for _, tc := range cases {
		rec, err := RecordedRun("mimo", tc.class, DefaultSeed, 1000, 1024)
		if err != nil {
			t.Fatalf("%s: %v", tc.class, err)
		}
		d := health.Diagnose(rec.Meta(), rec.Snapshot())
		if top := d.Top(); top.Cause != tc.want {
			t.Errorf("%s diagnosed as %s (%.2f: %s), want %s",
				tc.class, top.Cause, top.Score, top.Evidence, tc.want)
		}
	}
}

func TestFlightRecordingDumpsToDir(t *testing.T) {
	prev := func() string { frMu.Lock(); defer frMu.Unlock(); return frDir }()
	defer SetFlightRecording(prev)
	dir := t.TempDir()
	SetFlightRecording(dir)

	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	mimo, _, err := DesignedMIMO(false, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTracking([]core.ArchController{mimo.Clone()}, w, DefaultSeed, 300, 100); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d dump files, want 1", len(entries))
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "track_namd_") || !strings.HasSuffix(name, ".frec") {
		t.Fatalf("unexpected dump name %q", name)
	}
	meta, recs, err := flightrec.ReadDumpFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "namd" || meta.Reason != "run-complete" || meta.Capacity != harnessRingCapacity {
		t.Errorf("dump meta %+v", meta)
	}
	if len(recs) != 300 || recs[len(recs)-1].Epoch != 300 {
		t.Errorf("dump holds %d records, want every one of the run's 300 epochs", len(recs))
	}
}

func TestFaultClassByName(t *testing.T) {
	for _, name := range []string{"", "none", InfeasibleTargetClass, "sensor-freeze", "actuator-delay"} {
		if _, ok := FaultClassByName(name, 1000); !ok {
			t.Errorf("class %q not resolved", name)
		}
	}
	if _, ok := FaultClassByName("bogus", 1000); ok {
		t.Error("bogus class resolved")
	}
}
