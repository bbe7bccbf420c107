package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mimoctl/internal/core"
	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

// Baseline-drift regression: a healthy single-loop run is snapshotted
// into testdata/golden/tsdb_baseline.json (the observability analog of
// the golden CSVs — regenerate with `make golden-tsdb` and review the
// diff), and the drift detector must stay quiet against that committed
// baseline on a healthy rerun while flagging a plant-gain-drift run
// whose honest telemetry degrades tracking.

const historyBaselineEpochs = 1200

func baselineGoldenPath() string {
	return filepath.Join("testdata", "golden", "tsdb_baseline.json")
}

// historyRun drives one supervised MIMO loop with the telemetry-history
// recorder attached the way a live process wires it: as a bus sink
// behind the fleet plane. The ring out-sizes the event count, so the
// recorder deterministically sees every epoch — the store's contents
// depend only on the seed, never on pump scheduling.
func historyRun(t *testing.T, fault *sim.PlantFault) *tsdb.DB {
	t.Helper()
	w, err := workloads.ByName(FaultSweepWorkload)
	if err != nil {
		t.Fatal(err)
	}
	mimo, _, err := DesignedMIMO(false, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), DefaultSeed+7001)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(proc, DefaultSeed+7101)
	if fault != nil {
		inj.AddPlantFault(*fault)
	}

	db := tsdb.New(tsdb.Options{})
	var fleet *obs.Fleet
	rec := tsdb.NewRecorder(db, func(id uint32) string { return fleet.LoopName(id) })
	bus := obs.NewBus(1<<14, rec)
	fleet = obs.NewFleet(obs.Options{Bus: bus})
	SetObservability(fleet)
	defer SetObservability(nil)

	sup := supervisor.New(mimo.Clone(), supervisor.Options{})
	sup.Reset()
	sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	wireLoopObs(sup, "baseline/loop")
	tel := inj.Step()
	for k := 0; k < historyBaselineEpochs; k++ {
		cfg := sup.Step(tel)
		if cfg.Validate() != nil {
			cfg = tel.Config
		}
		sup.ObserveApply(cfg, inj.Apply(cfg))
		tel = inj.Step()
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Sync()
	return db
}

func TestHistoryBaselineDrift(t *testing.T) {
	db := historyRun(t, nil)
	from, to, ok := db.EpochRange()
	if !ok {
		t.Fatal("healthy run recorded no history")
	}
	if to != historyBaselineEpochs {
		t.Fatalf("history spans epochs %d..%d, want last epoch %d", from, to, historyBaselineEpochs)
	}
	// The baseline states the window it covers: every baselined signal
	// keeps a raw point for every epoch of it.
	for _, sig := range tsdb.BaselineSignals {
		pts, _ := db.Query(nil, "baseline/loop", sig, from, to, tsdb.ResRaw)
		if uint64(len(pts)) != to-from+1 {
			t.Errorf("%s keeps %d raw points over epochs %d..%d, want %d", sig, len(pts), from, to, to-from+1)
		}
	}

	// The healthy run reproduces the committed baseline byte-for-byte.
	base := tsdb.CaptureBaseline(db, tsdb.BaselineSignals, from, to)
	got, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := baselineGoldenPath()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with make golden-tsdb)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("captured baseline deviates from %s (regenerate with make golden-tsdb and review the diff)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}

	// The committed snapshot loads, and the healthy run's own trailing
	// window shows no drift against it.
	committed, err := tsdb.ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	det := tsdb.NewDetector(db, committed)
	st := det.Check(to)
	if len(st.Drifts) != 0 {
		t.Errorf("healthy run drifts against its own baseline: %v", st.Drifts)
	}
	if detail, active := det.Annotation(); active {
		t.Errorf("healthy run raised a drift annotation: %s", detail)
	}

	// A plant-gain drift — honest sensors, degrading silicon — must be
	// flagged: measured IPS sags under an unchanged target, so the
	// recorded tracking error regresses past the committed stats.
	drifted := historyRun(t, &sim.PlantFault{
		Kind: sim.PlantGainDrift, From: 0, Until: historyBaselineEpochs,
		GainRateIPS: 2e-3, GainLimitIPS: 0.5,
	})
	_, to2, ok := drifted.EpochRange()
	if !ok {
		t.Fatal("drifted run recorded no history")
	}
	det2 := tsdb.NewDetector(drifted, committed)
	st2 := det2.Check(to2)
	var sawTrackErr bool
	for _, d := range st2.Drifts {
		if d.Signal == "track_err" {
			sawTrackErr = true
		}
	}
	if !sawTrackErr {
		t.Errorf("plant-gain drift not flagged on track_err; drifts: %v", st2.Drifts)
	}
	if _, active := det2.Annotation(); !active {
		t.Error("drifted run has no active healthz annotation")
	}
}
