package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"mimoctl/internal/telemetry"
)

// Baseline drift detection: the observability analog of a golden
// regression test. A Baseline is a compact fleet-wide statistical snapshot of
// selected signals over a reference window, committed alongside the
// goldens; at runtime the Detector periodically compares a trailing
// live window against it and flags signals whose live statistics
// regressed past a tolerance — tracking error creeping up, power
// drifting over target — surfacing the finding as a warn-level
// Healthz annotation instead of a hard failure.

// BaselineStat is one signal's snapshot over the reference window,
// aggregated across loops.
type BaselineStat struct {
	Mean  telemetry.JSONFloat `json:"mean"`
	P95   telemetry.JSONFloat `json:"p95"`
	Max   telemetry.JSONFloat `json:"max"`
	Count uint64              `json:"count"`
}

// Baseline is the committed snapshot.
type Baseline struct {
	Version int                     `json:"version"`
	From    uint64                  `json:"from_epoch"`
	To      uint64                  `json:"to_epoch"`
	Signals map[string]BaselineStat `json:"signals"`
}

// BaselineVersion is the current snapshot format.
const BaselineVersion = 1

// BaselineSignals is the default signal set captured into (and scored
// against) a baseline: the one-sided cost/error signals where only an
// increase means regression. Throughput-like signals (ips, req_*) are
// deliberately absent — higher is not worse.
var BaselineSignals = []string{"track_err", "power_w", "innov_norm", "guardband"}

// CaptureBaseline snapshots the named signals over [from, to] at raw
// resolution, aggregating across every loop in the store. Call
// Recorder.Sync (or Table.Sync) first if rollup-fed levels matter;
// capture itself reads raw points.
func CaptureBaseline(db *DB, signals []string, from, to uint64) Baseline {
	b := Baseline{Version: BaselineVersion, From: from, To: to, Signals: make(map[string]BaselineStat, len(signals))}
	for _, sig := range signals {
		if st, ok := fleetStat(db, sig, from, to); ok {
			b.Signals[sig] = st
		}
	}
	return b
}

// fleetStat aggregates one signal across loops: mean weighted by
// sample count, p95 and max over the pooled finite samples.
func fleetStat(db *DB, signal string, from, to uint64) (BaselineStat, bool) {
	var pooled []float64
	sum := 0.0
	count := uint64(0)
	var pts []Point
	for _, t := range db.carrying(signal) {
		pts, _ = t.Query(pts[:0], signal, from, to, ResRaw)
		for _, p := range pts {
			if !isFinite(p.Mean) {
				continue
			}
			pooled = append(pooled, p.Mean)
			sum += p.Mean
			count++
		}
	}
	if count == 0 {
		return BaselineStat{}, false
	}
	sort.Float64s(pooled)
	return BaselineStat{
		Mean:  telemetry.JSONFloat(sum / float64(count)),
		P95:   telemetry.JSONFloat(quantileSorted(pooled, 0.95)),
		Max:   telemetry.JSONFloat(pooled[len(pooled)-1]),
		Count: count,
	}, true
}

// WriteBaseline marshals b deterministically (sorted keys, indented)
// to path.
func WriteBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a committed snapshot.
func ReadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("tsdb: parsing baseline %s: %w", path, err)
	}
	if b.Version != BaselineVersion {
		return b, fmt.Errorf("tsdb: baseline %s has version %d, want %d", path, b.Version, BaselineVersion)
	}
	return b, nil
}

// Drift is one flagged regression.
type Drift struct {
	Signal   string  `json:"signal"`
	Stat     string  `json:"stat"` // "mean" or "p95"
	Baseline float64 `json:"baseline"`
	Live     float64 `json:"live"`
	Ratio    float64 `json:"ratio"` // live / baseline (+Inf for a zero baseline)
}

func (d Drift) String() string {
	return fmt.Sprintf("%s %s %.4g vs baseline %.4g (%.2fx)", d.Signal, d.Stat, d.Live, d.Baseline, d.Ratio)
}

// driftTolerance is the allowed relative increase over the baseline
// stat before a signal is flagged (+25%); driftAbsMin is the minimum
// absolute increase required alongside the relative one, guarding
// near-zero baselines.
const (
	driftTolerance float64 = 0.25
	driftAbsMin    float64 = 1e-3
)

// driftMinCount is the fewest finite live samples a signal must pool
// before it is compared: a cold store never drifts.
const driftMinCount = 64

// CompareBaseline scores the live [from, to] window against base:
// every baselined signal whose live mean or p95 exceeds the baseline
// by more than the tolerance (relative AND absolute) is flagged.
// Regressions are one-sided — these are cost/error signals where only
// increases are bad. Results sort by signal then stat.
func CompareBaseline(db *DB, base Baseline, from, to uint64) []Drift {
	sigs := make([]string, 0, len(base.Signals))
	for sig := range base.Signals {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var out []Drift
	for _, sig := range sigs {
		bs := base.Signals[sig]
		live, ok := fleetStat(db, sig, from, to)
		if !ok || live.Count < driftMinCount {
			continue
		}
		for _, cmp := range []struct {
			stat       string
			base, live float64
		}{
			{"mean", float64(bs.Mean), float64(live.Mean)},
			{"p95", float64(bs.P95), float64(live.P95)},
		} {
			if !isFinite(cmp.base) || !isFinite(cmp.live) {
				continue
			}
			if cmp.live-cmp.base <= driftAbsMin {
				continue
			}
			threshold := cmp.base * (1 + driftTolerance)
			if cmp.base <= 0 {
				threshold = driftAbsMin
			}
			if cmp.live <= threshold {
				continue
			}
			ratio := math.Inf(1)
			if cmp.base > 0 {
				ratio = cmp.live / cmp.base
			}
			out = append(out, Drift{Signal: sig, Stat: cmp.stat, Baseline: cmp.base, Live: cmp.live, Ratio: ratio})
		}
	}
	return out
}

// DriftStatus is the detector's latest verdict.
type DriftStatus struct {
	CheckedAt uint64  `json:"checked_at_epoch"`
	Window    uint64  `json:"window_epochs"`
	Drifts    []Drift `json:"drifts"`
}

// Detector periodically compares a trailing live window against a
// committed baseline. advance runs on the recorder's ingest goroutine;
// Status and Annotation are safe from any goroutine.
type Detector struct {
	db     *DB
	base   Baseline
	window uint64 // live window length in epochs
	every  uint64 // check cadence in epochs

	nextCheck uint64
	status    atomic.Pointer[DriftStatus]
}

// NewDetector builds a drift detector over db. Each check compares the
// trailing window of the baseline's own span (1 024 epochs when the
// span is empty), every half window.
func NewDetector(db *DB, base Baseline) *Detector {
	window := uint64(1024)
	if span := base.To - base.From; span > 0 {
		window = span
	}
	return &Detector{db: db, base: base, window: window, every: max(window/2, 1), nextCheck: window}
}

// advance notes ingest progress and runs a comparison each time the
// max ingested epoch crosses the next cadence boundary.
func (d *Detector) advance(maxEpoch uint64) {
	if maxEpoch < d.nextCheck {
		return
	}
	d.nextCheck = maxEpoch + d.every
	d.Check(maxEpoch)
}

// Check compares the trailing window ending at epoch now and publishes
// the result.
func (d *Detector) Check(now uint64) DriftStatus {
	from := uint64(0)
	if now > d.window {
		from = now - d.window
	}
	st := DriftStatus{CheckedAt: now, Window: d.window,
		Drifts: CompareBaseline(d.db, d.base, from, now)}
	d.status.Store(&st)
	return st
}

// Annotation renders the verdict as a /healthz warn source: active
// only while the last check flagged drift. Pass it to the fleet's
// health check, obs.Fleet.Healthz(det.Annotation), which lists it after
// the fleet's own warns; drift never turns /healthz unhealthy.
func (d *Detector) Annotation() (string, bool) {
	st := d.status.Load()
	if st == nil || len(st.Drifts) == 0 {
		return "", false
	}
	parts := make([]string, len(st.Drifts))
	for i, dr := range st.Drifts {
		parts[i] = dr.String()
	}
	return fmt.Sprintf("baseline drift (epoch %d, window %d): %s",
		st.CheckedAt, st.Window, strings.Join(parts, "; ")), true
}
