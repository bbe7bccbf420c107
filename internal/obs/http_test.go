package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// /events handler edge cases: parameter validation, the unlimited
// limit=0 stream, and the CSV rendering path.

func TestEventsHandlerNoBus(t *testing.T) {
	f := NewFleet(Options{})
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d without a bus, want 404", resp.StatusCode)
	}
}

func TestEventsHandlerBadLimit(t *testing.T) {
	bus := NewBus(64)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()
	for _, q := range []string{"?limit=-1", "?limit=abc", "?limit=1.5"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestEventsHandlerCSVLimitZero pins the limit=0 contract: zero means
// unlimited — the stream keeps flowing well past any small limit and
// ends only when the client disconnects, not on its own.
func TestEventsHandlerCSVLimitZero(t *testing.T) {
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	l := f.Register("a")
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()

	// Feed the stream from a pacer goroutine started before the request:
	// the handler sends no response headers until its first event, so a
	// client that connects before any publish would wait forever.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Observe(goodSample())
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"?format=csv&limit=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type %q, want text/csv", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	const wantRows = 10 // would exceed any small default limit
	var lines []string
	for len(lines) < wantRows+1 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != wantRows+1 {
		t.Fatalf("stream ended early with %d lines: %v (scan err %v)", len(lines), lines, sc.Err())
	}
	if !strings.HasPrefix(lines[0], "loop,epoch,mode,") {
		t.Fatalf("CSV header missing: %q", lines[0])
	}
	for _, row := range lines[1:] {
		if !strings.HasPrefix(row, "a,") {
			t.Fatalf("unexpected CSV row: %q", row)
		}
	}
	// Disconnect mid-stream: the handler must unwind without wedging the
	// bus (Close below would hang on a stuck subscriber).
	cancel()
}

// TestEventsHandlerCSVLimited pins the interaction of format=csv with
// a positive limit: exactly N data rows after the header, then EOF.
func TestEventsHandlerCSVLimited(t *testing.T) {
	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Bus: bus})
	l := f.Register("a")
	srv := httptest.NewServer(f.EventsHandler())
	defer srv.Close()

	done := make(chan []string, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?format=csv&limit=2")
		if err != nil {
			done <- []string{"err: " + err.Error()}
			return
		}
		defer resp.Body.Close()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		done <- lines
	}()
	for {
		select {
		case lines := <-done:
			if len(lines) != 3 {
				t.Fatalf("got %d CSV lines, want header+2: %v", len(lines), lines)
			}
			return
		default:
			l.Observe(goodSample())
		}
	}
}

// TestSLOHandlerLoopMatchesFilteredReport holds /slo?loop=<name>, which
// builds only that loop's row, to the whole Report with its rows
// filtered to the loop, byte for byte: for every loop of a fleet with
// ok, burning and alerting loops, for an unknown name, and on an empty
// fleet.
func TestSLOHandlerLoopMatchesFilteredReport(t *testing.T) {
	filtered := func(rep FleetReport, loop string) []byte {
		rows := rep.Rows[:0]
		for _, row := range rep.Rows {
			if row.Loop == loop {
				rows = append(rows, row)
			}
		}
		rep.Rows = rows
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	check := func(f *Fleet, loop string) {
		t.Helper()
		rec := httptest.NewRecorder()
		f.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo?loop="+loop, nil))
		if want := filtered(f.Report(""), loop); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("/slo?loop=%s:\n%s\nwant\n%s", loop, rec.Body.Bytes(), want)
		}
	}
	check(NewFleet(Options{}), "nope")

	bus := NewBus(1 << 10)
	defer bus.Close()
	f := NewFleet(Options{Specs: healthzSpecs(), Bus: bus})
	var names []string
	for i, level := range []Level{LevelOK, LevelFail, LevelWarn, LevelOK, LevelFail, LevelWarn, LevelWarn} {
		name := fmt.Sprintf("loop-%d", i)
		driveSLO(f.Register(name), level)
		names = append(names, name)
	}
	rep := f.Report("")
	if rep.AlertingLoops != 2 || rep.BurningLoops != 5 {
		t.Fatalf("fleet has %d alerting and %d burning loops, want 2 and 5", rep.AlertingLoops, rep.BurningLoops)
	}
	for _, name := range append(names, "nope") {
		check(f, name)
	}
}
