package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestJSONFloatRoundTrip(t *testing.T) {
	cases := []struct {
		v    float64
		text string
	}{
		{1.25, "1.25"},
		{0, "0"},
		{-3e-9, "-3e-9"},
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	}
	for _, c := range cases {
		b, err := json.Marshal(JSONFloat(c.v))
		if err != nil {
			t.Fatalf("marshal %v: %v", c.v, err)
		}
		if string(b) != c.text {
			t.Errorf("marshal %v = %s, want %s", c.v, b, c.text)
		}
		var back JSONFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(c.v) &&
			!(math.IsNaN(float64(back)) && math.IsNaN(c.v)) {
			t.Errorf("round trip %v -> %v", c.v, float64(back))
		}
	}
}

func TestJSONFloatAcceptsBareInf(t *testing.T) {
	var f JSONFloat
	if err := json.Unmarshal([]byte(`"Inf"`), &f); err != nil || !math.IsInf(float64(f), 1) {
		t.Fatalf(`"Inf" decoded to %v, err %v`, float64(f), err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Fatal("bogus sentinel accepted")
	}
}

// TestJSONLTraceNaNInfRoundTrip is the end-to-end satellite: a faulted
// run's JSONL trace encodes non-finite readings as sentinels and a
// streaming decoder restores them bit-exactly.
func TestJSONLTraceNaNInfRoundTrip(t *testing.T) {
	type row struct {
		Epoch  int       `json:"epoch"`
		IPS    JSONFloat `json:"ips_meas"`
		PowerW JSONFloat `json:"power_meas"`
		Innov  JSONFloat `json:"innov_ips"`
	}
	events := []row{
		{Epoch: 0, IPS: 2.5, PowerW: 2.0, Innov: 0.01},
		{Epoch: 1, IPS: JSONFloat(math.NaN()), PowerW: JSONFloat(math.Inf(1)), Innov: JSONFloat(math.NaN())},
		{Epoch: 2, IPS: 2.6, PowerW: JSONFloat(math.Inf(-1))},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("write epoch %d: %v", e.Epoch, err)
		}
	}
	if strings.Contains(buf.String(), "null") {
		t.Fatalf("trace contains null: %s", buf.String())
	}

	dec := json.NewDecoder(&buf)
	eq := func(a, b JSONFloat) bool {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
	for i, e := range events {
		var g row
		if err := dec.Decode(&g); err != nil {
			t.Fatalf("decode event %d: %v", i, err)
		}
		if g.Epoch != e.Epoch || !eq(g.IPS, e.IPS) || !eq(g.PowerW, e.PowerW) || !eq(g.Innov, e.Innov) {
			t.Errorf("event %d did not round-trip:\n got %+v\nwant %+v", i, g, e)
		}
	}
	if dec.More() {
		t.Fatal("trailing data after the last event")
	}
}
