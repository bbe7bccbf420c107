package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
)

// JSONFloat is a float64 that survives JSON encoding of non-finite
// values. encoding/json rejects NaN and ±Inf outright
// (json.UnsupportedValueError), which silently truncated JSONL traces
// exactly on the faulted runs worth tracing; JSONFloat encodes them as
// the string sentinels "NaN", "+Inf", and "-Inf" instead and accepts
// both plain numbers and sentinels on decode. Finite values marshal via
// encoding/json itself, so their text form is byte-identical to a plain
// float64 field. The per-epoch record's text codec (internal/obs: the
// event stream, flight-recorder JSONL dumps and cmd/mimotrace) encodes
// its floats with this type.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = JSONFloat(math.NaN())
		case "+Inf", "Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		default:
			return fmt.Errorf("telemetry: %q is not a float sentinel (want NaN, +Inf, -Inf)", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}
