package sysid

import "math/rand"

// Excitation waveform design for black-box identification (paper §IV-B1:
// "We apply waveforms with special patterns at the inputs of the system,
// and monitor the waveforms at the outputs").

// PRBS generates a pseudo-random binary sequence of length n that holds
// each value for `hold` samples and alternates between levels lo and hi.
// PRBS is the classic persistently exciting identification input.
// A non-positive n yields nil (no samples requested).
func PRBS(rng *rand.Rand, n, hold int, lo, hi float64) []float64 {
	if n <= 0 {
		return nil
	}
	if hold < 1 {
		hold = 1
	}
	out := make([]float64, n)
	cur := lo
	for i := 0; i < n; i += hold {
		if rng.Intn(2) == 0 {
			cur = lo
		} else {
			cur = hi
		}
		for j := i; j < i+hold && j < n; j++ {
			out[j] = cur
		}
	}
	return out
}

// RandomLevels generates a piecewise-constant sequence whose value is
// drawn uniformly from levels and held for a random duration in
// [holdMin, holdMax] samples. This exercises the full discrete setting
// range of an architectural knob.
// A non-positive n or an empty level set yields nil.
func RandomLevels(rng *rand.Rand, n int, levels []float64, holdMin, holdMax int) []float64 {
	if n <= 0 || len(levels) == 0 {
		return nil
	}
	if holdMin < 1 {
		holdMin = 1
	}
	if holdMax < holdMin {
		holdMax = holdMin
	}
	out := make([]float64, n)
	i := 0
	for i < n {
		v := levels[rng.Intn(len(levels))]
		h := holdMin + rng.Intn(holdMax-holdMin+1)
		for j := i; j < i+h && j < n; j++ {
			out[j] = v
		}
		i += h
	}
	return out
}
