package sysid

import (
	"math"
	"math/rand"
	"testing"
)

// The fuzz target for the PRBS excitation generator: whatever the
// parameters, it must not panic, must return the requested number of
// samples, and must emit only allowed values — identification inputs
// are applied to the (simulated) hardware knobs, so an out-of-range
// sample is an illegal actuation.

func FuzzPRBS(f *testing.F) {
	f.Add(int64(1), 100, 5, 0.0, 1.0)
	f.Add(int64(7), 0, 0, -2.0, 2.0)
	f.Add(int64(42), 1, -3, 3.5, 3.5)
	f.Add(int64(-1), 17, 1000, math.Inf(-1), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n, hold int, lo, hi float64) {
		if n > 1<<16 {
			t.Skip("unbounded allocation")
		}
		out := PRBS(rand.New(rand.NewSource(seed)), n, hold, lo, hi)
		if n <= 0 {
			if out != nil {
				t.Fatalf("n=%d: want nil, got %d samples", n, len(out))
			}
			return
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d samples", n, len(out))
		}
		lob, hib := math.Float64bits(lo), math.Float64bits(hi)
		for i, v := range out {
			if b := math.Float64bits(v); b != lob && b != hib {
				t.Fatalf("sample %d = %v is neither lo=%v nor hi=%v", i, v, lo, hi)
			}
		}
	})
}
