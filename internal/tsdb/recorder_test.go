package tsdb

import (
	"math"
	"testing"

	"mimoctl/internal/obs"
)

// Status returns the latest verdict (ok=false before the first check).
func (d *Detector) Status() (DriftStatus, bool) {
	st := d.status.Load()
	if st == nil {
		return DriftStatus{}, false
	}
	return *st, true
}

func testEvent(loop uint32, epoch uint64, ips, ipsT, pw, pwT float64) obs.Event {
	return obs.Event{
		LoopID: loop, Epoch: epoch,
		IPS: ips, IPSTarget: ipsT, PowerW: pw, PowerTarget: pwT,
		InnovNorm: 0.1, Guardband: 0.2, Mode: 1,
		ReqFreq: 3, ReqCache: 4, ReqROB: 5,
	}
}

func TestRecorderIngestsAllSignals(t *testing.T) {
	db := New(Options{})
	names := func(id uint32) string {
		if id == 7 {
			return "core7"
		}
		return ""
	}
	rec := NewRecorder(db, names)
	batch := []obs.Event{
		testEvent(7, 0, 1.0, 2.0, 10, 20),
		testEvent(7, 1, 2.0, 2.0, 20, 20),
		testEvent(9, 0, 5.0, 5.0, 30, 30),
	}
	if err := rec.WriteEvents(batch); err != nil {
		t.Fatal(err)
	}
	rec.Sync()

	// One table per loop with a column per signal, named via NameFunc
	// (fallback loop-<id> for unregistered ids).
	keys := db.Keys()
	if len(keys) != 2*nSignals {
		t.Fatalf("registered %d (loop, signal) keys, want %d", len(keys), 2*nSignals)
	}
	for i, k := range keys {
		if want := []string{"core7", "loop-9"}[i/nSignals]; k.Loop != want {
			t.Fatalf("key %d = %+v, want loop %s", i, k, want)
		}
	}
	for _, loop := range []string{"core7", "loop-9"} {
		for _, sig := range Signals {
			if pts, _ := db.Query(nil, loop, sig, 0, 10, ResRaw); len(pts) == 0 {
				t.Fatalf("missing %s/%s", loop, sig)
			}
		}
	}

	pts, _ := db.Query(nil, "core7", "ips", 0, 10, ResRaw)
	if len(pts) != 2 || pts[0].Mean != 1.0 || pts[1].Mean != 2.0 {
		t.Fatalf("core7/ips points: %+v", pts)
	}
	// Derived tracking error: epoch 0 has ips off by 50%, power off by
	// 50%; epoch 1 tracks exactly.
	terr, _ := db.Query(nil, "core7", "track_err", 0, 10, ResRaw)
	if len(terr) != 2 || math.Abs(terr[0].Mean-0.5) > 1e-12 || terr[1].Mean != 0 {
		t.Fatalf("track_err points: %+v", terr)
	}
	// Discrete knobs land as floats.
	freq, _ := db.Query(nil, "loop-9", "req_freq", 0, 10, ResRaw)
	if len(freq) != 1 || freq[0].Mean != 3 {
		t.Fatalf("req_freq points: %+v", freq)
	}
}

func TestTrackErrSemantics(t *testing.T) {
	cases := []struct {
		name string
		ev   obs.Event
		want float64
	}{
		{"exact", testEvent(1, 0, 2, 2, 10, 10), 0},
		{"worst-channel", testEvent(1, 0, 3, 2, 10, 10), 0.5},
		{"unset-targets", testEvent(1, 0, 3, 0, 10, 0), 0},
		{"nan-measurement", testEvent(1, 0, math.NaN(), 2, 10, 10), math.Inf(1)},
	}
	for _, c := range cases {
		ev := c.ev
		if got := obs.TrackErr(&ev); math.Float64bits(got) != math.Float64bits(c.want) && got != c.want {
			t.Errorf("%s: TrackErr = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderAdvancesDetector(t *testing.T) {
	db := New(Options{})
	rec := NewRecorder(db, nil)

	// Seed a healthy baseline: track_err mean 0. The detector compares
	// its 99-epoch span every 49 epochs.
	base := Baseline{Version: BaselineVersion, From: 0, To: 99, Signals: map[string]BaselineStat{
		"track_err": {Mean: 0, P95: 0, Max: 0, Count: 100},
	}}
	det := NewDetector(db, base)
	rec.SetDetector(det)

	// Feed 200 epochs of badly-tracking telemetry through the recorder.
	batch := make([]obs.Event, 0, 200)
	for e := uint64(0); e < 200; e++ {
		batch = append(batch, testEvent(1, e, 3.0, 2.0, 10, 10)) // 50% ips error
	}
	if err := rec.WriteEvents(batch); err != nil {
		t.Fatal(err)
	}
	st, ok := det.Status()
	if !ok {
		t.Fatal("detector never checked despite 200 ingested epochs")
	}
	found := false
	for _, d := range st.Drifts {
		if d.Signal == "track_err" {
			found = true
			if d.Live < 0.49 {
				t.Fatalf("drift live stat %v, want ~0.5", d.Live)
			}
		}
	}
	if !found {
		t.Fatalf("no track_err drift flagged: %+v", st.Drifts)
	}
	if msg, active := det.Annotation(); !active || msg == "" {
		t.Fatalf("annotation inactive after drift: %q %v", msg, active)
	}
}

func TestRecorderWriteEventsAllocFree(t *testing.T) {
	db := New(Options{RawEpochs: 512, MidEpochs: 2048, CoarseEpochs: 16384})
	rec := NewRecorder(db, nil)
	batch := make([]obs.Event, 64)
	e := uint64(0)
	fill := func() {
		for i := range batch {
			batch[i] = testEvent(uint32(i%4), e, 1.9+float64(i%3)*0.05, 2.0, 9.8, 10)
			if i%4 == 3 {
				e++
			}
		}
	}
	// Warmup registers the 4 loops and runs until every level's ring has
	// wrapped (the 256x ring after 2 blocks of 16 384 epochs), so each
	// open block writes into recycled buffers.
	for e < 40000 {
		fill()
		if err := rec.WriteEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		fill()
		_ = rec.WriteEvents(batch)
	})
	if avg != 0 {
		t.Fatalf("steady-state WriteEvents allocated %.2f allocs/batch", avg)
	}
}
