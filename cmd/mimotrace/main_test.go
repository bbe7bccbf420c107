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
// sequence (from 1) as the epoch.
func TestTraceEndpoint(t *testing.T) {
	r := flightrec.New(4)
	for k := 0; k < 6; k++ {
		r.Append(&obs.Event{Epoch: 99, IPSTarget: 2.5, IPS: float64(k), ReqFreq: int16(k)})
	}
	h := traceEndpoint(r).Handler

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	dec := json.NewDecoder(rec.Body)
	for k := 2; k < 6; k++ {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Epoch != uint64(k+1) || ev.IPS != float64(k) {
			t.Fatalf("record %+v, want append %d at epoch %d", ev, k, k+1)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?format=csv", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 5 || lines[0] != strings.Join(obs.Columns, ",") || !strings.HasPrefix(lines[1], "loop-0,3,") {
		t.Fatalf("CSV /trace:\n%s", rec.Body.String())
	}
}
