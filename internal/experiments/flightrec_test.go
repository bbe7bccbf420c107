package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/workloads"
)

// TestMain wires the CI evidence hook: when FLIGHTREC_DUMP_DIR is set,
// every recordable run in the package's tests leaves a flight-recorder
// dump there, so a failing experiments job uploads the controller's
// last epochs as an artifact instead of just an assertion message.
func TestMain(m *testing.M) {
	if dir := os.Getenv("FLIGHTREC_DUMP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			SetFlightRecording(FlightRecConfig{Enabled: true, Dir: dir})
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
	prev := func() FlightRecConfig { frMu.Lock(); defer frMu.Unlock(); return frCfg }()
	defer SetFlightRecording(prev)
	dir := t.TempDir()
	SetFlightRecording(FlightRecConfig{Enabled: true, Dir: dir, Capacity: 256})

	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	mimo, _, err := DesignedMIMO(false, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTracking(mimo.Clone(), w, DefaultSeed, 300, 100); err != nil {
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
	if meta.Workload != "namd" || meta.Reason != "run-complete" {
		t.Errorf("dump meta %+v", meta)
	}
	if len(recs) != 256 {
		t.Errorf("dump holds %d records, want the full 256-record ring", len(recs))
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
