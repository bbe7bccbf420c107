package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/health"
	"mimoctl/internal/obs"
)

// The committed flight-recorder dumps the mimodoctor CI smoke job
// diagnoses (`mimodoctor -replay -expect <cause>`): one sensor fault
// and one plant-drift episode, so both ends of the diagnoser's
// sensor-vs-model axis stay pinned. Regenerate after an intentional
// recording-format or loop change with:
//
//	make golden-doctor
//
// (equivalently: go test ./internal/experiments/ -run TestGoldenDoctorDump -update)
var goldenDumps = []struct {
	arch   string
	class  string
	epochs int
	cause  health.Cause
	// swap requires the dump to contain a FlagAdaptSwap epoch: the
	// recording must capture the full drift → re-identified → recovered
	// arc, not just the drift.
	swap bool
}{
	{"mimo", "sensor-freeze", 1000, health.CauseSensorFault, false},
	// The drift dump records the adaptive arch over a horizon sized so
	// the 1024-record ring holds the whole episode: drift ramp at
	// [400,600), model-health fallback, dither round, and the accepted
	// hot-swap near epoch 1262 with the recovered loop after it.
	{"adaptive", "plant-drift", 1600, health.CauseModelDrift, true},
}

const goldenDumpCap = 1024

// TestGoldenDoctorDump pins the committed dumps: each recorded scenario
// must reproduce its dump byte-for-byte (format and control loop
// unchanged) and the diagnoser must still call the injected fault.
func TestGoldenDoctorDump(t *testing.T) {
	for _, gd := range goldenDumps {
		gd := gd
		t.Run(gd.class, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", "doctor_"+gd.class+".frec")
			rec, err := RecordedRun(gd.arch, gd.class, DefaultSeed, gd.epochs, goldenDumpCap)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := rec.WriteFile(path, "golden"); err != nil {
					t.Fatal(err)
				}
				return
			}
			meta, recs, err := flightrec.ReadDumpFile(path)
			if err != nil {
				t.Fatalf("missing golden dump (run make golden-doctor to create): %v", err)
			}
			if meta.Arch != gd.arch || meta.FaultClass != gd.class || meta.Seed != DefaultSeed {
				t.Fatalf("golden dump identity drifted: %+v", meta)
			}
			if !bytes.Equal(flightrec.EncodeRecords(rec.Snapshot()), flightrec.EncodeRecords(recs)) {
				t.Fatal("recorded scenario no longer reproduces the golden dump byte-for-byte " +
					"(intentional change? run make golden-doctor and review the diff)")
			}
			if top := health.Diagnose(meta, recs).Top(); top.Cause != gd.cause {
				t.Fatalf("golden dump diagnosed as %s (%s), want %s", top.Cause, top.Evidence, gd.cause)
			}
			if gd.swap {
				swapped := false
				for _, r := range recs {
					if r.Flags&obs.FlagAdaptSwap != 0 {
						swapped = true
						break
					}
				}
				if !swapped {
					t.Fatal("golden dump records no adapt hot-swap epoch; the recovery arc is missing")
				}
			}
			// The binary stays small enough to live in git (one ring ≈ 144 KB).
			if fi, err := os.Stat(path); err != nil || fi.Size() > 256<<10 {
				t.Fatalf("golden dump size check: size=%v err=%v", fi.Size(), err)
			}
		})
	}
}
