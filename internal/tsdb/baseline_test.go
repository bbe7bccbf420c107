package tsdb

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func baselineDB(errLevel float64) *DB {
	db := New(Options{})
	for _, loop := range []string{"a", "b"} {
		s := db.Table(loop, []string{"track_err", "power_w"})
		for e := uint64(0); e < 256; e++ {
			s.Append(e, errLevel+0.001*float64(e%5), 10.0)
		}
		s.Sync()
	}
	return db
}

func TestBaselineCaptureRoundTrip(t *testing.T) {
	db := baselineDB(0.02)
	b := CaptureBaseline(db, []string{"track_err", "power_w", "absent"}, 0, 255)
	if len(b.Signals) != 2 {
		t.Fatalf("captured %d signals, want 2 (absent skipped): %+v", len(b.Signals), b.Signals)
	}
	st := b.Signals["track_err"]
	if st.Count != 512 {
		t.Fatalf("pooled %d samples, want 512", st.Count)
	}
	// e%5 over 0..255 hits residue 0 52 times and 1..4 51 times each:
	// mean offset = 0.001*510/256.
	wantMean := 0.02 + 0.001*510/256
	if m := float64(st.Mean); math.Abs(m-wantMean) > 1e-12 {
		t.Fatalf("mean %v, want %v", m, wantMean)
	}
	if m := float64(st.Max); math.Abs(m-0.024) > 1e-12 {
		t.Fatalf("max %v, want 0.024", m)
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != BaselineVersion || back.From != 0 || back.To != 255 {
		t.Fatalf("round-trip header: %+v", back)
	}
	if got := back.Signals["track_err"]; got != st {
		t.Fatalf("round-trip stat: %+v, want %+v", got, st)
	}
}

func TestReadBaselineRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := Baseline{Version: 99, Signals: map[string]BaselineStat{}}
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
}

func TestCompareBaselineFlagsRegression(t *testing.T) {
	base := CaptureBaseline(baselineDB(0.02), []string{"track_err", "power_w"}, 0, 255)

	// Healthy live run: same distribution, no drift.
	healthy := CompareBaseline(baselineDB(0.02), base, 0, 255)
	if len(healthy) != 0 {
		t.Fatalf("healthy run flagged: %+v", healthy)
	}

	// Regressed live run: tracking error tripled, power unchanged.
	drifts := CompareBaseline(baselineDB(0.06), base, 0, 255)
	if len(drifts) == 0 {
		t.Fatal("3x tracking-error regression not flagged")
	}
	for _, d := range drifts {
		if d.Signal != "track_err" {
			t.Fatalf("unexpected drift on %s: %+v", d.Signal, d)
		}
		if d.Ratio < 2 {
			t.Fatalf("ratio %v, want ~3", d.Ratio)
		}
	}
}

func TestCompareBaselineMinCount(t *testing.T) {
	base := CaptureBaseline(baselineDB(0.02), []string{"track_err"}, 0, 255)
	// A cold live store pools nothing; a tiny one pools under
	// driftMinCount.
	cold := New(Options{})
	if got := CompareBaseline(cold, base, 0, 255); len(got) != 0 {
		t.Fatalf("cold store flagged drift: %+v", got)
	}
	tiny := New(Options{})
	s := tiny.Table("a", []string{"track_err"})
	for e := uint64(0); e < 10; e++ {
		s.Append(e, 5.0)
	}
	if got := CompareBaseline(tiny, base, 0, 255); len(got) != 0 {
		t.Fatalf("window under driftMinCount flagged drift: %+v", got)
	}
}

func TestDetectorAnnotationLifecycle(t *testing.T) {
	base := CaptureBaseline(baselineDB(0.02), []string{"track_err"}, 0, 255)
	live := baselineDB(0.06)
	det := NewDetector(live, base)
	if _, active := det.Annotation(); active {
		t.Fatal("annotation active before any check")
	}
	st := det.Check(255)
	if len(st.Drifts) == 0 {
		t.Fatal("regressed store produced no drifts")
	}
	msg, active := det.Annotation()
	if !active || !strings.Contains(msg, "track_err") {
		t.Fatalf("annotation %q active=%v", msg, active)
	}
	got, ok := det.Status()
	if !ok || got.CheckedAt != 255 || len(got.Drifts) != len(st.Drifts) {
		t.Fatalf("status %+v ok=%v", got, ok)
	}
}
