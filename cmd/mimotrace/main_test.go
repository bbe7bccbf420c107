package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/testkit"
)

// runRows runs mimotrace for 200 epochs with JSONL rows and decodes
// them.
func runRows(t *testing.T, args ...string) []obs.Event {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-epochs", "200", "-format", "jsonl"), &out); err != nil {
		t.Fatal(err)
	}
	var rows []obs.Event
	for dec := json.NewDecoder(&out); dec.More(); {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, ev)
	}
	if len(rows) != 200 {
		t.Fatalf("%d rows, want 200", len(rows))
	}
	return rows
}

// TestSupervisedRowsAreTheSupervisorsRecords: a supervised run's rows
// are the supervisor's records, carrying its flag and its innovation
// norm on every epoch.
func TestSupervisedRowsAreTheSupervisorsRecords(t *testing.T) {
	for i, ev := range runRows(t, "-arch", "supervised") {
		if ev.Epoch != uint64(i+1) || ev.Flags&obs.FlagSupervised == 0 || math.IsNaN(ev.InnovNorm) || math.IsInf(ev.InnovNorm, 0) {
			t.Fatalf("row %d: epoch %d, flags %#x, innov_norm %v; want epoch %d, FlagSupervised and a finite norm",
				i, ev.Epoch, ev.Flags, ev.InnovNorm, i+1)
		}
	}
}

// TestMIMORowsEqualTheDump: a mimo run's rows and its -flightrec dump
// are the same records, field by field.
func TestMIMORowsEqualTheDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.frec")
	rows := runRows(t, "-arch", "mimo", "-flightrec", path)
	_, recs, err := flightrec.ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rows) {
		t.Fatalf("dump holds %d records, the run printed %d rows", len(recs), len(rows))
	}
	for i := range rows {
		if d := testkit.EventDiff(rows[i], recs[i]); d != nil {
			t.Fatalf("row %d differs from its dump record: %v", i, d)
		}
	}
}

// TestTraceEndpoint: /trace serves the run's ring through the shared
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
