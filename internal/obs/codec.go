package obs

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"

	"mimoctl/internal/telemetry"
)

// The text codec of an Event. The bus sinks, /events, the flight
// recorder's JSONL dumps and cmd/mimotrace all encode through it, so a
// column means the same thing wherever it appears. Fields a flight
// record has always had keep the flight recorder's keys (ips_meas,
// power_meas, ips_true, ...); the rest keep the event stream's (loop,
// health, adapt, innov_norm, guardband). Floats render as the shortest
// decimal that parses back to the same value; non-finite ones as NaN,
// +Inf and -Inf, quoted in JSON (the telemetry.JSONFloat sentinels), so
// faulted epochs — the ones worth reading — survive encoding.

// Columns is the column order of every text encoding of an Event: the
// JSON keys in emission order and the CSV header.
var Columns = []string{
	"loop", "epoch", "mode", "health", "adapt", "flags",
	"ips_target", "power_target", "ips_meas", "power_meas", "ips_true", "power_true",
	"innov_ips", "innov_power", "innov_norm", "excess_norm", "guardband",
	"u_freq_ghz", "u_l2_ways", "u_rob",
	"req_freq", "req_cache", "req_rob", "cfg_freq", "cfg_cache", "cfg_rob",
}

// eventWire is the decoding mirror of the JSON form, fields in Columns
// order.
type eventWire struct {
	Loop        string              `json:"loop"`
	Epoch       uint64              `json:"epoch"`
	Mode        uint8               `json:"mode"`
	Health      uint8               `json:"health"`
	Adapt       uint8               `json:"adapt"`
	Flags       uint32              `json:"flags"`
	IPSTarget   telemetry.JSONFloat `json:"ips_target"`
	PowerTarget telemetry.JSONFloat `json:"power_target"`
	IPS         telemetry.JSONFloat `json:"ips_meas"`
	PowerW      telemetry.JSONFloat `json:"power_meas"`
	TrueIPS     telemetry.JSONFloat `json:"ips_true"`
	TruePowerW  telemetry.JSONFloat `json:"power_true"`
	InnovIPS    telemetry.JSONFloat `json:"innov_ips"`
	InnovPowerW telemetry.JSONFloat `json:"innov_power"`
	InnovNorm   telemetry.JSONFloat `json:"innov_norm"`
	ExcessNorm  telemetry.JSONFloat `json:"excess_norm"`
	Guardband   telemetry.JSONFloat `json:"guardband"`
	UFreqGHz    telemetry.JSONFloat `json:"u_freq_ghz"`
	UL2Ways     telemetry.JSONFloat `json:"u_l2_ways"`
	UROBEntries telemetry.JSONFloat `json:"u_rob"`
	ReqFreq     int16               `json:"req_freq"`
	ReqCache    int16               `json:"req_cache"`
	ReqROB      int16               `json:"req_rob"`
	CfgFreq     int16               `json:"cfg_freq"`
	CfgCache    int16               `json:"cfg_cache"`
	CfgROB      int16               `json:"cfg_rob"`
}

func (w *eventWire) event() Event {
	return Event{
		LoopID: loopID(w.Loop), Epoch: w.Epoch,
		Mode: w.Mode, Health: w.Health, Adapt: w.Adapt, Flags: w.Flags,
		IPSTarget: float64(w.IPSTarget), PowerTarget: float64(w.PowerTarget),
		IPS: float64(w.IPS), PowerW: float64(w.PowerW),
		TrueIPS: float64(w.TrueIPS), TruePowerW: float64(w.TruePowerW),
		InnovIPS: float64(w.InnovIPS), InnovPowerW: float64(w.InnovPowerW),
		InnovNorm: float64(w.InnovNorm), ExcessNorm: float64(w.ExcessNorm),
		Guardband: float64(w.Guardband),
		UFreqGHz:  float64(w.UFreqGHz), UL2Ways: float64(w.UL2Ways), UROBEntries: float64(w.UROBEntries),
		ReqFreq: w.ReqFreq, ReqCache: w.ReqCache, ReqROB: w.ReqROB,
		CfgFreq: w.CfgFreq, CfgCache: w.CfgCache, CfgROB: w.CfgROB,
	}
}

// MarshalJSON implements json.Marshaler; the loop renders as
// "loop-<id>".
func (ev Event) MarshalJSON() ([]byte, error) {
	w := rowWriter{json: true}
	ev.writeRow(&w, nil)
	return w.b, nil
}

// UnmarshalJSON implements json.Unmarshaler. An absent float key
// decodes as NaN ("not computed") and an absent integer key as 0, so
// records written before a field existed still decode. A loop rendered
// as "loop-<id>" decodes back to its id; a registered name decodes as 0.
func (ev *Event) UnmarshalJSON(b []byte) error {
	nan := telemetry.JSONFloat(math.NaN())
	w := eventWire{
		IPSTarget: nan, PowerTarget: nan, IPS: nan, PowerW: nan, TrueIPS: nan, TruePowerW: nan,
		InnovIPS: nan, InnovPowerW: nan, InnovNorm: nan, ExcessNorm: nan, Guardband: nan,
		UFreqGHz: nan, UL2Ways: nan, UROBEntries: nan,
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*ev = w.event()
	return nil
}

// writeRow renders the event's fields into w, in Columns order.
func (ev *Event) writeRow(w *rowWriter, names NameFunc) {
	w.begin()
	w.str(loopName(ev.LoopID, names))
	w.uint(ev.Epoch)
	w.uint(uint64(ev.Mode))
	w.uint(uint64(ev.Health))
	w.uint(uint64(ev.Adapt))
	w.uint(uint64(ev.Flags))
	for _, v := range [...]float64{
		ev.IPSTarget, ev.PowerTarget, ev.IPS, ev.PowerW, ev.TrueIPS, ev.TruePowerW,
		ev.InnovIPS, ev.InnovPowerW, ev.InnovNorm, ev.ExcessNorm, ev.Guardband,
		ev.UFreqGHz, ev.UL2Ways, ev.UROBEntries,
	} {
		w.float(v)
	}
	for _, v := range [...]int16{ev.ReqFreq, ev.ReqCache, ev.ReqROB, ev.CfgFreq, ev.CfgCache, ev.CfgROB} {
		w.int(int64(v))
	}
	w.end()
}

// rowWriter appends one event per line to b: a JSON object keyed by
// Columns, or a CSV row. Keys come from Columns by position, so the
// JSON keys and the CSV header cannot disagree.
type rowWriter struct {
	b    []byte
	json bool
	col  int
}

func (w *rowWriter) begin() {
	w.col = 0
	if w.json {
		w.b = append(w.b, '{')
	}
}

func (w *rowWriter) end() {
	if w.json {
		w.b = append(w.b, '}')
	}
}

// next writes the separator and, in JSON, the key of the next column.
func (w *rowWriter) next() {
	if w.col > 0 {
		w.b = append(w.b, ',')
	}
	if w.json {
		w.b = append(w.b, '"')
		w.b = append(w.b, Columns[w.col]...)
		w.b = append(w.b, '"', ':')
	}
	w.col++
}

func (w *rowWriter) uint(v uint64) {
	w.next()
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *rowWriter) int(v int64) {
	w.next()
	w.b = strconv.AppendInt(w.b, v, 10)
}

// float writes the shortest decimal that round-trips; non-finite
// values render as NaN, +Inf or -Inf (quoted in JSON).
func (w *rowWriter) float(v float64) {
	w.next()
	quote := w.json && (math.IsNaN(v) || math.IsInf(v, 0))
	if quote {
		w.b = append(w.b, '"')
	}
	w.b = strconv.AppendFloat(w.b, v, 'g', -1, 64)
	if quote {
		w.b = append(w.b, '"')
	}
}

// str writes a string column: a JSON string, or a CSV field quoted
// when it holds a separator, a quote or a line break.
func (w *rowWriter) str(s string) {
	w.next()
	switch {
	case w.json:
		w.b = append(w.b, '"')
		for i := 0; i < len(s); i++ {
			switch c := s[i]; {
			case c == '"' || c == '\\':
				w.b = append(w.b, '\\', c)
			case c < 0x20:
				w.b = append(w.b, `\u00`...)
				w.b = append(w.b, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
			default:
				w.b = append(w.b, c)
			}
		}
		w.b = append(w.b, '"')
	case strings.ContainsAny(s, ",\"\r\n"):
		w.b = append(w.b, '"')
		w.b = append(w.b, strings.ReplaceAll(s, `"`, `""`)...)
		w.b = append(w.b, '"')
	default:
		w.b = append(w.b, s...)
	}
}

// writeRows encodes batch one event per line and hands the lines to out
// in chunks of about 64 KiB.
func writeRows(out io.Writer, w *rowWriter, batch []Event, names NameFunc) error {
	w.b = w.b[:0]
	for i := range batch {
		batch[i].writeRow(w, names)
		w.b = append(w.b, '\n')
		if len(w.b) >= 64<<10 || i == len(batch)-1 {
			if _, err := out.Write(w.b); err != nil {
				return err
			}
			w.b = w.b[:0]
		}
	}
	return nil
}

// NameFunc resolves a loop id to its registered name for the text
// encodings; nil renders "loop-<id>".
type NameFunc func(id uint32) string

func loopName(id uint32, names NameFunc) string {
	if names != nil {
		if n := names(id); n != "" {
			return n
		}
	}
	return "loop-" + strconv.FormatUint(uint64(id), 10)
}

// loopID inverts loopName's default rendering.
func loopID(name string) uint32 {
	if rest, ok := strings.CutPrefix(name, "loop-"); ok {
		if id, err := strconv.ParseUint(rest, 10, 32); err == nil {
			return uint32(id)
		}
	}
	return 0
}

// JSONLSink renders one JSON object per event, one line each.
type JSONLSink struct {
	w     io.Writer
	names NameFunc
	row   rowWriter
}

// NewJSONLSink wraps w; names may be nil.
func NewJSONLSink(w io.Writer, names NameFunc) *JSONLSink {
	return &JSONLSink{w: w, names: names, row: rowWriter{json: true}}
}

// WriteEvents implements Sink.
func (s *JSONLSink) WriteEvents(batch []Event) error {
	return writeRows(s.w, &s.row, batch, s.names)
}

// CSVSink renders events as CSV under a Columns header row.
type CSVSink struct {
	w      io.Writer
	names  NameFunc
	wroteH bool
	row    rowWriter
}

// NewCSVSink wraps w; names may be nil.
func NewCSVSink(w io.Writer, names NameFunc) *CSVSink {
	return &CSVSink{w: w, names: names}
}

// WriteEvents implements Sink.
func (s *CSVSink) WriteEvents(batch []Event) error {
	if !s.wroteH {
		if _, err := io.WriteString(s.w, strings.Join(Columns, ",")+"\n"); err != nil {
			return err
		}
		s.wroteH = true
	}
	return writeRows(s.w, &s.row, batch, s.names)
}
