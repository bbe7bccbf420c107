package experiments

import (
	"math"
	"testing"
)

// Fuzz and property tests for the harness statistics: the steady-state
// detectors must return an epoch inside [0, len(series)] for any input
// (a figure indexes the run with the result), and the averaging helpers
// must follow their documented sentinel semantics on degenerate data.

func FuzzSteadyStateEpoch(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 1, 1, 1}, 0)
	f.Add([]byte{0, 5, 0, 5, 0}, 1)
	f.Add([]byte{200, 100, 0}, -7)
	f.Fuzz(func(t *testing.T, raw []byte, slack int) {
		series := bytesToSeries(raw)
		got := SteadyStateEpoch(series, slack)
		if got < 0 || got > len(series) {
			t.Fatalf("SteadyStateEpoch(%v, %d) = %d, outside [0, %d]", series, slack, got, len(series))
		}
	})
}

func FuzzSteadyStateEpochEMA(f *testing.F) {
	f.Add([]byte{}, 0.05, 1.0)
	f.Add([]byte{3, 3, 3}, 1.0, 0.0)
	f.Add([]byte{0, 9, 0, 9}, math.NaN(), math.NaN())
	f.Add([]byte{1, 2, 3, 4}, math.Inf(1), -1.0)
	f.Add([]byte{7, 1}, -0.5, math.Inf(-1))
	f.Fuzz(func(t *testing.T, raw []byte, alpha, tol float64) {
		series := bytesToSeries(raw)
		got := SteadyStateEpochEMA(series, alpha, tol)
		if got < 0 || got > len(series) {
			t.Fatalf("SteadyStateEpochEMA(%v, %v, %v) = %d, outside [0, %d]",
				series, alpha, tol, got, len(series))
		}
	})
}

// bytesToSeries reinterprets fuzz bytes as a small knob-setting series.
func bytesToSeries(raw []byte) []int {
	series := make([]int, len(raw))
	for i, b := range raw {
		series[i] = int(b) - 128
	}
	return series
}

func TestMeanProperties(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"all-NaN", []float64{nan, nan}, 0},
		{"all-Inf", []float64{inf, -inf}, 0},
		{"NaN-skipped", []float64{2, nan, 4}, 3},
		{"Inf-skipped", []float64{1, inf, 3, -inf}, 2},
		{"negatives-kept", []float64{-2, 2}, 0},
	}
	for _, c := range cases {
		if got := mean(c.in); got != c.want {
			t.Errorf("mean(%v) [%s] = %v, want %v", c.in, c.name, got, c.want)
		}
	}
}
