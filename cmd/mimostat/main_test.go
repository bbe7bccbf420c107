package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mimoctl/internal/obs"
	"mimoctl/internal/tsdb"
)

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}); got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", got)
	}
	// Flat series renders mid-level, not a divide-by-zero artifact.
	if got := sparkline([]float64{5, 5, 5}); got != "▅▅▅" {
		t.Fatalf("flat sparkline = %q", got)
	}
	// Non-finite samples render as gaps without poisoning the scale.
	got := sparkline([]float64{0, math.NaN(), 10, math.Inf(1), 0})
	if got != "▁ █ ▁" {
		t.Fatalf("gappy sparkline = %q", got)
	}
	if got := sparkline([]float64{math.NaN(), math.NaN()}); got != "  " {
		t.Fatalf("all-NaN sparkline = %q", got)
	}
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
}

func TestTail(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := tail(v, 2); len(got) != 2 || got[0] != 3 {
		t.Fatalf("tail = %v", got)
	}
	if got := tail(v, 10); len(got) != 4 {
		t.Fatalf("tail = %v", got)
	}
}

// recordedRun builds a tsdb store the way a live process would: events
// through a Recorder, then mounts /history exactly as the diagnostics
// server does.
func recordedRun(t *testing.T) *httptest.Server {
	t.Helper()
	db := tsdb.New(tsdb.Options{})
	rec := tsdb.NewRecorder(db, func(id uint32) string {
		return []string{"core0", "core1"}[id]
	})
	var batch []obs.Event
	for e := uint64(1); e <= 300; e++ {
		for id := uint32(0); id < 2; id++ {
			// core1 tracks worse than core0, and both drift over time.
			ips := 2.0 - 0.001*float64(e)*float64(id+1)
			batch = append(batch, obs.Event{
				LoopID: id, Epoch: e,
				IPS: ips, IPSTarget: 2.0, PowerW: 10, PowerTarget: 10,
				InnovNorm: 0.1, Guardband: 0.3 + 0.001*float64(e),
				ReqFreq: 3, ReqCache: 4, ReqROB: 5,
			})
		}
	}
	if err := rec.WriteEvents(batch); err != nil {
		t.Fatal(err)
	}
	rec.Sync()
	mux := http.NewServeMux()
	mux.Handle("/history", db.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRenderHistoryFleetSparkline(t *testing.T) {
	srv := recordedRun(t)
	var sb strings.Builder
	renderHistory(&sb, srv.Client(), srv.URL, "", 512)
	out := sb.String()
	if !strings.Contains(out, "track_err (fleet mean") {
		t.Fatalf("fleet sparkline panel missing:\n%s", out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparkline glyphs in fleet panel:\n%s", out)
	}
}

func TestRenderHistoryLoopDrillDown(t *testing.T) {
	srv := recordedRun(t)
	var sb strings.Builder
	renderHistory(&sb, srv.Client(), srv.URL, "core1", 512)
	out := sb.String()
	for _, sig := range []string{"ips", "power_w", "track_err", "guardband"} {
		if !strings.Contains(out, sig) {
			t.Fatalf("drill-down missing %s panel:\n%s", sig, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparkline glyphs in drill-down:\n%s", out)
	}
}

func TestRenderHistoryDegradesWithoutEndpoint(t *testing.T) {
	// A process without the history store has no /history route; the
	// panels must silently vanish instead of erroring.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	var sb strings.Builder
	renderHistory(&sb, srv.Client(), srv.URL, "", 512)
	renderHistory(&sb, srv.Client(), srv.URL, "some-loop", 512)
	if sb.Len() != 0 {
		t.Fatalf("history panels rendered without an endpoint: %q", sb.String())
	}
}

func TestRenderJSONMirrorsReport(t *testing.T) {
	rep := &obs.FleetReport{
		Loops: 2, Level: "warn", Detail: "1/2 loops burning error budget",
		BurningLoops: 1, EventsPublished: 1234, EventsDropped: 5,
		Rows: []obs.LoopStatus{{Loop: "core0", Epochs: 100}},
	}
	var sb strings.Builder
	renderJSON(&sb, rep)
	var back struct {
		PolledAt time.Time `json:"polled_at"`
		obs.FleetReport
	}
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, sb.String())
	}
	if back.Level != "warn" || back.Loops != 2 || back.EventsPublished != 1234 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if len(back.Rows) != 1 || back.Rows[0].Loop != "core0" {
		t.Fatalf("rows lost: %+v", back.Rows)
	}
	if back.PolledAt.IsZero() {
		t.Fatal("polled_at not stamped")
	}
}

// TestFetchDecodesEitherForm: /slo serves compact JSON, and fetch
// decodes it and an indented body alike; -json indents its own copy.
func TestFetchDecodesEitherForm(t *testing.T) {
	fleet := obs.NewFleet(obs.Options{})
	loop := fleet.Register("core0")
	for i := 0; i < 10; i++ {
		loop.Observe(&obs.Event{IPS: 2, IPSTarget: 2, PowerW: 10, PowerTarget: 10})
	}
	compact := httptest.NewServer(fleet.SLOHandler())
	defer compact.Close()
	want, err := fetch(compact.Client(), compact.URL)
	if err != nil {
		t.Fatal(err)
	}
	indented := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(want)
	}))
	defer indented.Close()
	got, err := fetch(indented.Client(), indented.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || want.Loops != 1 || len(want.Rows) != 1 {
		t.Fatalf("indented body decoded to %+v, compact to %+v", got, want)
	}
	var sb strings.Builder
	renderJSON(&sb, want)
	if !strings.Contains(sb.String(), "\n  \"loops\": 1,") {
		t.Fatalf("-json output not indented:\n%s", sb.String())
	}
}
