package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"mimoctl/internal/telemetry"
)

// HistoryPoint is one query-result sample on the wire (JSONFloat so
// NaN/Inf telemetry survives encoding).
type HistoryPoint struct {
	Epoch uint64              `json:"epoch"`
	Min   telemetry.JSONFloat `json:"min"`
	Max   telemetry.JSONFloat `json:"max"`
	Mean  telemetry.JSONFloat `json:"mean"`
	Count uint64              `json:"count"`
}

// HistoryResponse is the per-loop /history JSON body.
type HistoryResponse struct {
	Loop       string         `json:"loop"`
	Signal     string         `json:"signal"`
	Resolution string         `json:"resolution"`
	Points     []HistoryPoint `json:"points"`
}

// FleetHistoryPoint is one cross-loop aggregate sample on the wire.
type FleetHistoryPoint struct {
	Epoch     uint64                `json:"epoch"`
	Loops     int                   `json:"loops"`
	Min       telemetry.JSONFloat   `json:"min"`
	Max       telemetry.JSONFloat   `json:"max"`
	Mean      telemetry.JSONFloat   `json:"mean"`
	Quantiles []telemetry.JSONFloat `json:"quantiles,omitempty"`
}

// FleetHistoryResponse is the fleet-wide /history JSON body
// (loop omitted or "*").
type FleetHistoryResponse struct {
	Signal     string              `json:"signal"`
	Resolution string              `json:"resolution"`
	Quantiles  []float64           `json:"quantile_levels,omitempty"`
	Points     []FleetHistoryPoint `json:"points"`
}

// parseQuantiles parses "0.5,0.95"-style lists; values must be in
// (0, 1).
func parseQuantiles(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	qs := make([]float64, 0, len(parts))
	for _, p := range parts {
		q, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(q) || q <= 0 || q >= 1 {
			return nil, fmt.Errorf("bad quantile %q", p)
		}
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	return qs, nil
}

// Handler serves the history query API:
//
//	/history?loop=L&signal=S[&from=A][&to=B][&res=auto|1x|16x|256x][&format=csv]
//
// With loop omitted (or "*") it aggregates the signal across every
// loop per epoch bucket — min/max/mean of the per-loop bucket means —
// plus optional &q=0.5,0.95 percentiles. With signal omitted it lists
// the recorded (loop, signal) keys. from/to default to the full
// retained range; a query older than raw retention transparently falls
// back to the coarser rollups (res=auto).
func (db *DB) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		signal := q.Get("signal")
		if signal == "" {
			db.serveKeys(w)
			return
		}
		res, ok := ParseResolution(q.Get("res"))
		if !ok {
			http.Error(w, "bad res (want auto, 1x/raw, 16x/mid or 256x/coarse)", http.StatusBadRequest)
			return
		}
		from, to := uint64(0), uint64(math.MaxUint64)
		if s := q.Get("from"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad from", http.StatusBadRequest)
				return
			}
			from = v
		}
		if s := q.Get("to"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad to", http.StatusBadRequest)
				return
			}
			to = v
		}
		if from > to {
			http.Error(w, "from > to", http.StatusBadRequest)
			return
		}
		csv := q.Get("format") == "csv"
		loop := q.Get("loop")
		if loop == "" || loop == "*" {
			qs, err := parseQuantiles(q.Get("q"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			db.serveFleet(w, signal, from, to, res, qs, csv)
			return
		}
		db.serveLoop(w, loop, signal, from, to, res, csv)
	})
}

// serveKeys lists recorded series keys as JSON.
func (db *DB) serveKeys(w http.ResponseWriter) {
	type key struct {
		Loop   string `json:"loop"`
		Signal string `json:"signal"`
	}
	keys := db.Keys()
	out := make([]key, len(keys))
	for i, k := range keys {
		out[i] = key{Loop: k.Loop, Signal: k.Signal}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Series []key `json:"series"`
	}{out})
}

func (db *DB) serveLoop(w http.ResponseWriter, loop, signal string, from, to uint64, res Resolution, csv bool) {
	if t := db.lookup(loop); t == nil || t.col(signal) < 0 {
		http.Error(w, "unknown series "+loop+"/"+signal, http.StatusNotFound)
		return
	}
	pts, got := db.Query(nil, loop, signal, from, to, res)
	if csv {
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprintln(w, "epoch,min,max,mean,count")
		for _, p := range pts {
			fmt.Fprintf(w, "%d,%s,%s,%s,%d\n", p.Epoch,
				fmtFloat(p.Min), fmtFloat(p.Max), fmtFloat(p.Mean), p.Count)
		}
		return
	}
	resp := HistoryResponse{Loop: loop, Signal: signal, Resolution: got.String(),
		Points: make([]HistoryPoint, len(pts))}
	for i, p := range pts {
		resp.Points[i] = HistoryPoint{Epoch: p.Epoch,
			Min: telemetry.JSONFloat(p.Min), Max: telemetry.JSONFloat(p.Max),
			Mean: telemetry.JSONFloat(p.Mean), Count: p.Count}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(appendLoopJSON(nil, &resp))
}

func (db *DB) serveFleet(w http.ResponseWriter, signal string, from, to uint64, res Resolution, qs []float64, csv bool) {
	pts, got := db.QueryFleet(signal, from, to, res, qs)
	if csv {
		w.Header().Set("Content-Type", "text/csv")
		hdr := "epoch,loops,min,max,mean"
		for _, q := range qs {
			hdr += fmt.Sprintf(",p%g", q*100)
		}
		fmt.Fprintln(w, hdr)
		for _, p := range pts {
			fmt.Fprintf(w, "%d,%d,%s,%s,%s", p.Epoch, p.Loops,
				fmtFloat(p.Min), fmtFloat(p.Max), fmtFloat(p.Mean))
			for _, v := range p.Quantiles {
				fmt.Fprintf(w, ",%s", fmtFloat(v))
			}
			fmt.Fprintln(w)
		}
		return
	}
	resp := FleetHistoryResponse{Signal: signal, Resolution: got.String(),
		Quantiles: qs, Points: make([]FleetHistoryPoint, len(pts))}
	for i, p := range pts {
		fp := FleetHistoryPoint{Epoch: p.Epoch, Loops: p.Loops,
			Min: telemetry.JSONFloat(p.Min), Max: telemetry.JSONFloat(p.Max),
			Mean: telemetry.JSONFloat(p.Mean)}
		if len(p.Quantiles) > 0 {
			fp.Quantiles = make([]telemetry.JSONFloat, len(p.Quantiles))
			for j, v := range p.Quantiles {
				fp.Quantiles[j] = telemetry.JSONFloat(v)
			}
		}
		resp.Points[i] = fp
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(appendFleetJSON(nil, &resp))
}

// The /history bodies are written by hand, byte for byte as
// json.Encoder with SetIndent("", "  ") writes them
// (TestHistoryJSONMatchesEncoder), so a response costs no reflection
// and no json.Marshal per float.

// appendLoopJSON appends r, whose Points must be non-nil, and a newline.
func appendLoopJSON(b []byte, r *HistoryResponse) []byte {
	j := jsonBody{b: b}
	j.open('{')
	j.key("loop")
	j.str(r.Loop)
	j.key("signal")
	j.str(r.Signal)
	j.key("resolution")
	j.str(r.Resolution)
	j.key("points")
	j.open('[')
	for _, p := range r.Points {
		j.next()
		j.open('{')
		j.key("epoch")
		j.b = strconv.AppendUint(j.b, p.Epoch, 10)
		j.key("min")
		j.float(p.Min)
		j.key("max")
		j.float(p.Max)
		j.key("mean")
		j.float(p.Mean)
		j.key("count")
		j.b = strconv.AppendUint(j.b, p.Count, 10)
		j.close('}')
	}
	j.close(']')
	j.close('}')
	return append(j.b, '\n')
}

// appendFleetJSON appends r, whose Points must be non-nil, and a
// newline.
func appendFleetJSON(b []byte, r *FleetHistoryResponse) []byte {
	j := jsonBody{b: b}
	j.open('{')
	j.key("signal")
	j.str(r.Signal)
	j.key("resolution")
	j.str(r.Resolution)
	if len(r.Quantiles) > 0 {
		j.key("quantile_levels")
		j.open('[')
		for _, q := range r.Quantiles {
			j.next()
			j.float(telemetry.JSONFloat(q))
		}
		j.close(']')
	}
	j.key("points")
	j.open('[')
	for _, p := range r.Points {
		j.next()
		j.open('{')
		j.key("epoch")
		j.b = strconv.AppendUint(j.b, p.Epoch, 10)
		j.key("loops")
		j.b = strconv.AppendInt(j.b, int64(p.Loops), 10)
		j.key("min")
		j.float(p.Min)
		j.key("max")
		j.float(p.Max)
		j.key("mean")
		j.float(p.Mean)
		if len(p.Quantiles) > 0 {
			j.key("quantiles")
			j.open('[')
			for _, q := range p.Quantiles {
				j.next()
				j.float(q)
			}
			j.close(']')
		}
		j.close('}')
	}
	j.close(']')
	j.close('}')
	return append(j.b, '\n')
}

// jsonBody appends one indented JSON document.
type jsonBody struct {
	b     []byte
	elems []int // members or elements written, per open object or array
}

func (j *jsonBody) open(c byte) {
	j.b = append(j.b, c)
	j.elems = append(j.elems, 0)
}

func (j *jsonBody) close(c byte) {
	d := len(j.elems) - 1
	if j.elems[d] > 0 {
		j.indent(d)
	}
	j.elems = j.elems[:d]
	j.b = append(j.b, c)
}

// next starts a member or an element on a line of its own.
func (j *jsonBody) next() {
	d := len(j.elems) - 1
	if j.elems[d] > 0 {
		j.b = append(j.b, ',')
	}
	j.elems[d]++
	j.indent(d + 1)
}

func (j *jsonBody) indent(depth int) {
	j.b = append(j.b, '\n')
	for i := 0; i < depth; i++ {
		j.b = append(j.b, "  "...)
	}
}

// key starts an object member; names are plain ASCII.
func (j *jsonBody) key(name string) {
	j.next()
	j.b = append(j.b, '"')
	j.b = append(j.b, name...)
	j.b = append(j.b, `": `...)
}

// str writes s escaped as encoding/json escapes it.
func (j *jsonBody) str(s string) {
	q, _ := json.Marshal(s)
	j.b = append(j.b, q...)
}

// float writes f as telemetry.JSONFloat marshals it: non-finite values
// as the strings "NaN", "+Inf" and "-Inf", finite ones as
// encoding/json formats a float64.
func (j *jsonBody) float(f telemetry.JSONFloat) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		j.b = append(j.b, `"NaN"`...)
	case math.IsInf(v, 1):
		j.b = append(j.b, `"+Inf"`...)
	case math.IsInf(v, -1):
		j.b = append(j.b, `"-Inf"`...)
	default:
		format := byte('f')
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		j.b = strconv.AppendFloat(j.b, v, format, -1, 64)
		// encoding/json writes e-7, not e-07.
		if n := len(j.b); format == 'e' && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
			j.b[n-2] = j.b[n-1]
			j.b = j.b[:n-1]
		}
	}
}

// fmtFloat renders CSV floats compactly, keeping NaN/Inf spellings
// parseable by strconv.ParseFloat.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Endpoint returns the diagnostics route to mount via
// telemetry.ServerOptions.Extra.
func (db *DB) Endpoint() telemetry.Endpoint {
	return telemetry.Endpoint{
		Path:    "/history",
		Desc:    "telemetry history query (JSON; ?loop=&signal=&from=&to=&res=&format=csv)",
		Handler: db.Handler(),
	}
}
