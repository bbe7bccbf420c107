package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestEventSize pins the record's footprint: every ring slot, bus slot
// and batch scratch slot is one Event.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 144 {
		t.Fatalf("sizeof(Event) = %d bytes, want <= 144", n)
	}
}

// codecEvent sets every field to a distinct value, with the non-finite
// values a faulted epoch produces on a few of the float channels.
func codecEvent() Event {
	return Event{
		Epoch: 42, LoopID: 7, Flags: FlagSupervised | FlagSanitizedPower | FlagTargetChange,
		Mode: ModeFallback, Health: 2, Adapt: 3,
		IPSTarget: 2.5, PowerTarget: 2, IPS: math.NaN(), PowerW: math.Inf(1),
		TrueIPS: 2.25, TruePowerW: 1.875, InnovIPS: -0.125, InnovPowerW: 0.0625,
		InnovNorm: 0.05, ExcessNorm: 1e-9, Guardband: 0.75,
		UFreqGHz: math.Inf(-1), UL2Ways: 3.5, UROBEntries: 96,
		ReqFreq: 9, ReqCache: 2, ReqROB: IdxNA, CfgFreq: 8, CfgCache: 1, CfgROB: 5,
	}
}

// floats lists the record's float fields in Columns order.
func floats(ev *Event) []float64 {
	return []float64{
		ev.IPSTarget, ev.PowerTarget, ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW,
		ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm, ev.ExcessNorm, ev.Guardband,
		ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries,
	}
}

// sameBits compares two events field for field, floats by bit pattern.
func sameBits(a, b Event) bool {
	fa, fb := floats(&a), floats(&b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	a.IPSTarget, a.PowerTarget, a.IPS, a.PowerW, a.TrueIPS, a.TruePowerW = 0, 0, 0, 0, 0, 0
	a.InnovIPS, a.InnovPowerW, a.InnovNorm, a.ExcessNorm, a.Guardband = 0, 0, 0, 0, 0
	a.UFreqGHz, a.UL2Ways, a.UROBEntries = 0, 0, 0
	b.IPSTarget, b.PowerTarget, b.IPS, b.PowerW, b.TrueIPS, b.TruePowerW = 0, 0, 0, 0, 0, 0
	b.InnovIPS, b.InnovPowerW, b.InnovNorm, b.ExcessNorm, b.Guardband = 0, 0, 0, 0, 0
	b.UFreqGHz, b.UL2Ways, b.UROBEntries = 0, 0, 0
	return a == b
}

// TestCSVRow: the CSV sink writes the Columns header and one cell per
// column, quoting a loop name that holds a separator, so the file parses
// back with encoding/csv.
func TestCSVRow(t *testing.T) {
	ev := codecEvent()
	var buf bytes.Buffer
	sink := NewCSVSink(&buf, func(uint32) string { return `cpu0,"big"` })
	if err := sink.WriteEvents([]Event{ev, ev}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(rows) != 3 {
		t.Fatalf("CSV rows %v err %v", rows, err)
	}
	if strings.Join(rows[0], ",") != strings.Join(Columns, ",") {
		t.Fatalf("header %v, want %v", rows[0], Columns)
	}
	want := []string{`cpu0,"big"`, "42", "1", "2", "3", "2065", "2.5", "2", "NaN", "+Inf", "2.25", "1.875",
		"-0.125", "0.0625", "0.05", "1e-09", "0.75", "-Inf", "3.5", "96", "9", "2", "-1", "8", "1", "5"}
	if strings.Join(rows[1], "|") != strings.Join(want, "|") {
		t.Fatalf("row\n got %q\nwant %q", rows[1], want)
	}
}

// TestJSONRoundTrip: every field survives JSON bit for bit, NaN and
// ±Inf included, and the default loop rendering decodes back to its id.
// A decoder key that drifted from its Columns name would decode NaN or
// 0 and fail here.
func TestJSONRoundTrip(t *testing.T) {
	ev := codecEvent()
	var buf bytes.Buffer
	if err := NewJSONLSink(&buf, nil).WriteEvents([]Event{ev, ev}); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < 2; i++ {
		var got Event
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, ev) {
			t.Fatalf("round trip %d:\n got %+v\nwant %+v", i, got, ev)
		}
	}
}

// TestJSONAbsentKeys: a record written before a field existed decodes
// that field as "not computed" (NaN) or 0, and a registered loop name
// (which the stream cannot invert) as id 0.
func TestJSONAbsentKeys(t *testing.T) {
	var ev Event
	if err := json.Unmarshal([]byte(`{"loop":"cpu0","epoch":3,"ips_meas":1.5,"req_rob":-1}`), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.LoopID != 0 || ev.Epoch != 3 || ev.IPS != 1.5 || ev.ReqROB != IdxNA || ev.Flags != 0 || ev.Mode != 0 {
		t.Fatalf("decoded %+v", ev)
	}
	for i, v := range floats(&ev) {
		if i != 2 && !math.IsNaN(v) {
			t.Errorf("absent float column %d decoded %v, want NaN", i, v)
		}
	}
	if err := json.Unmarshal([]byte(`{"loop":"loop-12"}`), &ev); err != nil || ev.LoopID != 12 {
		t.Fatalf("loop-12 decoded to id %d (err %v)", ev.LoopID, err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestSinkErrorSurfacesOnClose: a sink write error must not pass
// silently — Close reports the first one, so a truncated stream cannot
// end in a clean exit.
func TestSinkErrorSurfacesOnClose(t *testing.T) {
	for name, sink := range map[string]Sink{
		"csv":   NewCSVSink(failWriter{}, nil),
		"jsonl": NewJSONLSink(failWriter{}, nil),
	} {
		bus := NewBus(64, sink)
		ev := codecEvent()
		bus.Publish(&ev)
		if err := bus.Close(); err == nil {
			t.Errorf("%s: Close returned nil after a failed write", name)
		}
	}
}
