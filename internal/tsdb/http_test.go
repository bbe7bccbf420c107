package tsdb

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /history responses with the current outputs")

// goldenDB builds a deterministic two-loop store for the query golden.
func goldenDB() *DB {
	db := New(Options{})
	for li, loop := range []string{"core0", "core1"} {
		s := db.Table(loop, []string{"ips", "power_w"})
		for e := uint64(0); e < 64; e++ {
			// Piecewise-deterministic shapes: a ramp with a step, offset
			// per loop, plus a NaN sentinel at epoch 40 on core1.
			v := 1.0 + 0.25*float64(li) + 0.01*float64(e)
			if e >= 32 {
				v += 0.5
			}
			if li == 1 && e == 40 {
				v = math.NaN()
			}
			s.Append(e, v, 10+float64(li)+0.1*float64(e))
		}
		s.Sync()
	}
	return db
}

// get serves one /history request against db and returns status + body.
func get(t *testing.T, db *DB, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rr := httptest.NewRecorder()
	db.Handler().ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

// TestHistoryGolden pins the /history wire format — per-loop JSON and
// CSV, fleet aggregation with quantiles, mid-resolution rollups, and
// the key listing — byte-for-byte against committed goldens.
func TestHistoryGolden(t *testing.T) {
	db := goldenDB()
	cases := []struct{ name, url string }{
		{"loop_raw", "/history?loop=core0&signal=ips&from=0&to=15&res=raw"},
		{"loop_mid", "/history?loop=core1&signal=ips&res=16x"},
		{"loop_csv", "/history?loop=core1&signal=ips&from=32&to=47&format=csv"},
		{"fleet_quantiles", "/history?signal=ips&res=16x&q=0.5,0.95"},
		{"fleet_csv", "/history?loop=*&signal=power_w&from=0&to=31&res=16x&format=csv&q=0.5"},
		{"keys", "/history"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			code, body := get(t, db, c.url)
			if code != 200 {
				t.Fatalf("status %d: %s", code, body)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal([]byte(body), want) {
				t.Fatalf("response differs from %s\ngot:\n%s\nwant:\n%s", path, body, want)
			}
		})
	}
}

func TestHistoryBadRequests(t *testing.T) {
	db := goldenDB()
	cases := []struct {
		url  string
		code int
	}{
		{"/history?loop=core0&signal=ips&res=2x", 400},
		{"/history?loop=core0&signal=ips&from=abc", 400},
		{"/history?loop=core0&signal=ips&to=-1", 400},
		{"/history?loop=core0&signal=ips&from=10&to=5", 400},
		{"/history?signal=ips&q=1.5", 400},
		{"/history?signal=ips&q=0.5,nope", 400},
		{"/history?loop=absent&signal=ips", 404},
		{"/history?loop=core0&signal=absent", 404},
	}
	for _, c := range cases {
		if code, body := get(t, db, c.url); code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.url, code, c.code, strings.TrimSpace(body))
		}
	}
}

func TestHistoryNaNSurvivesJSON(t *testing.T) {
	db := goldenDB()
	// core1 epoch 40 is NaN; raw JSON must encode it as the JSONFloat
	// "NaN" string, and the response must parse back.
	code, body := get(t, db, "/history?loop=core1&signal=ips&from=40&to=40&res=raw")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var resp HistoryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("response does not re-parse: %v\n%s", err, body)
	}
	if len(resp.Points) != 1 || !math.IsNaN(float64(resp.Points[0].Mean)) {
		t.Fatalf("NaN sample did not survive: %+v", resp.Points)
	}
}

func TestHistoryCSVParseable(t *testing.T) {
	db := goldenDB()
	_, body := get(t, db, "/history?loop=core1&signal=ips&from=39&to=41&format=csv")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d CSV lines, want header + 3: %q", len(lines), body)
	}
	if lines[0] != "epoch,min,max,mean,count" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], "NaN") {
		t.Fatalf("NaN row not spelled parseably: %q", lines[2])
	}
}

func TestHistoryAutoResolution(t *testing.T) {
	db := goldenDB()
	code, body := get(t, db, "/history?loop=core0&signal=ips")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var resp HistoryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Resolution != "raw" {
		t.Fatalf("auto resolution picked %q for a short run, want raw", resp.Resolution)
	}
	if len(resp.Points) != 64 {
		t.Fatalf("full-range default returned %d points, want 64", len(resp.Points))
	}
}

// TestHistoryJSONMatchesEncoder holds the hand-written /history bodies
// to encoding/json's indented encoding, byte for byte, over random
// responses: floats from every formatting regime (zeros, subnormals,
// the 1e-6 and 1e21 exponent cutoffs, NaN payloads, infinities) and
// names that need escaping.
func TestHistoryJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e21, 9.99999e20, -1e-7,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000123), 1.5, 2.3e-9, 123456789012345678}
	float := func() telemetry.JSONFloat {
		switch rng.Intn(3) {
		case 0:
			return telemetry.JSONFloat(specials[rng.Intn(len(specials))])
		case 1:
			return telemetry.JSONFloat(math.Float64frombits(rng.Uint64()))
		}
		return telemetry.JSONFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
	}
	names := []string{"core0", "faults/plant-drift/Adaptive(MIMO)", `q"uote\back`, "<tag>&amp;", "tab\tnl\n", "ünï ", "\xff"}
	want := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := 0; i < 300; i++ {
		loop := HistoryResponse{Loop: names[rng.Intn(len(names))], Signal: names[rng.Intn(len(names))],
			Resolution: Resolution(rng.Intn(3)).String(), Points: make([]HistoryPoint, rng.Intn(4))}
		for k := range loop.Points {
			loop.Points[k] = HistoryPoint{Epoch: rng.Uint64() >> uint(rng.Intn(64)),
				Min: float(), Max: float(), Mean: float(), Count: uint64(rng.Intn(300))}
		}
		if got, w := appendLoopJSON(nil, &loop), want(loop); !bytes.Equal(got, w) {
			t.Fatalf("loop body differs\ngot:\n%s\nwant:\n%s", got, w)
		}
		fleet := FleetHistoryResponse{Signal: names[rng.Intn(len(names))],
			Resolution: Resolution(rng.Intn(3)).String(), Points: make([]FleetHistoryPoint, rng.Intn(4))}
		for n := rng.Intn(3); n > 0; n-- {
			fleet.Quantiles = append(fleet.Quantiles, rng.Float64())
		}
		for k := range fleet.Points {
			p := FleetHistoryPoint{Epoch: rng.Uint64(), Loops: rng.Intn(1000),
				Min: float(), Max: float(), Mean: float()}
			for n := rng.Intn(3); n > 0; n-- {
				p.Quantiles = append(p.Quantiles, float())
			}
			fleet.Points[k] = p
		}
		if got, w := appendFleetJSON(nil, &fleet), want(fleet); !bytes.Equal(got, w) {
			t.Fatalf("fleet body differs\ngot:\n%s\nwant:\n%s", got, w)
		}
	}
}
