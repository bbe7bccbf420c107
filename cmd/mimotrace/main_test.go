package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
)

// TestTraceEndpoint: /trace serves the harness ring through the shared
// record codec, JSONL by default and CSV on request, with the ring's
// sequence as the epoch.
func TestTraceEndpoint(t *testing.T) {
	r := flightrec.New(4)
	for k := 0; k < 6; k++ {
		r.Append(&obs.Event{Epoch: 99, IPSTarget: 2.5, IPS: float64(k), ReqFreq: int16(k)})
	}
	h := traceEndpoint(r).Handler

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	dec := json.NewDecoder(rec.Body)
	for want := uint64(2); want < 6; want++ {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Epoch != want || ev.IPS != float64(want) {
			t.Fatalf("record %+v, want epoch %d", ev, want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?format=csv", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 5 || lines[0] != strings.Join(obs.Columns, ",") || !strings.HasPrefix(lines[1], "loop-0,2,") {
		t.Fatalf("CSV /trace:\n%s", rec.Body.String())
	}
}
