// Package sim implements the processor substrate the controllers act on:
// an epoch-level model of an out-of-order core in the style of the ARM
// Cortex-A15 system the paper simulates with ESESC + McPAT.
//
// The simulator exposes exactly the control surface of the paper
// (Table III):
//
//   - inputs (knobs): DVFS frequency (16 settings, 0.5-2.0 GHz),
//     L2/L1 cache ways ((8,4),(6,3),(4,2),(2,1)), and ROB size
//     (16-128 entries in steps of 16);
//   - outputs (sensors): power in watts and performance in billions of
//     committed instructions per second (BIPS), sampled every 50 µs
//     control epoch with realistic sensor noise.
//
// Internally it combines a first-order interval model of the core
// pipeline (issue width, ROB-limited ILP, miss and branch stalls,
// memory-level parallelism) with per-workload cache miss-rate curves —
// calibrated from synthetic address traces (CalibrateMissCurve) —
// a dynamic + leakage power model with voltage/frequency pairs
// interpolated from published A15 values, a first-order thermal state
// that couples power back into leakage, cache-resize warm-up transients,
// DVFS transition stalls, and stochastic workload phase behaviour. These
// are the dynamics that make the plant a genuinely multi-state system
// for identification, as in the paper (model dimension 4).
package sim

import (
	"fmt"
	"math"
)

// Knob level counts (paper Table III).
const (
	numFreqLevels  = 16
	numCacheLevels = 4
	numROBLevels   = 8
)

// Knob setting tables (paper Table III).
var (
	// FreqSettingsGHz are the 16 DVFS operating points.
	FreqSettingsGHz = func() []float64 {
		f := make([]float64, numFreqLevels)
		for i := range f {
			f[i] = 0.5 + 0.1*float64(i)
		}
		return f
	}()

	// CacheSettings lists (L2 ways, L1 ways) from largest to smallest.
	CacheSettings = [][2]int{{8, 4}, {6, 3}, {4, 2}, {2, 1}} // numCacheLevels entries

	// ROBSettings are the reorder-buffer sizes.
	ROBSettings = func() []int {
		r := make([]int, numROBLevels)
		for i := range r {
			r[i] = 16 * (i + 1)
		}
		return r
	}()
)

// CacheWaysLevels returns the L2-way counts of the cache settings as
// floats (the "cache size" input channel seen by controllers),
// ascending.
func CacheWaysLevels() []float64 {
	out := make([]float64, len(CacheSettings))
	for i, cs := range CacheSettings {
		out[len(CacheSettings)-1-i] = float64(cs[0])
	}
	return out
}

// ROBLevels returns the ROB sizes as floats, ascending.
func ROBLevels() []float64 {
	out := make([]float64, len(ROBSettings))
	for i, r := range ROBSettings {
		out[i] = float64(r)
	}
	return out
}

// FreqLevels returns the frequency settings in GHz, ascending.
func FreqLevels() []float64 {
	return append([]float64(nil), FreqSettingsGHz...)
}

// Config selects one setting per knob by index.
type Config struct {
	FreqIdx  int // into FreqSettingsGHz
	CacheIdx int // into CacheSettings (0 = largest)
	ROBIdx   int // into ROBSettings
}

// Validate checks all indices.
func (c Config) Validate() error {
	if c.FreqIdx < 0 || c.FreqIdx >= len(FreqSettingsGHz) {
		return fmt.Errorf("sim: frequency index %d out of range [0,%d)", c.FreqIdx, len(FreqSettingsGHz))
	}
	if c.CacheIdx < 0 || c.CacheIdx >= len(CacheSettings) {
		return fmt.Errorf("sim: cache index %d out of range [0,%d)", c.CacheIdx, len(CacheSettings))
	}
	if c.ROBIdx < 0 || c.ROBIdx >= len(ROBSettings) {
		return fmt.Errorf("sim: ROB index %d out of range [0,%d)", c.ROBIdx, len(ROBSettings))
	}
	return nil
}

// FreqGHz returns the selected core frequency.
func (c Config) FreqGHz() float64 { return FreqSettingsGHz[c.FreqIdx] }

// L2Ways returns the selected L2 associativity.
func (c Config) L2Ways() int { return CacheSettings[c.CacheIdx][0] }

// L1Ways returns the selected L1 associativity.
func (c Config) L1Ways() int { return CacheSettings[c.CacheIdx][1] }

// ROBEntries returns the selected reorder buffer size.
func (c Config) ROBEntries() int { return ROBSettings[c.ROBIdx] }

// String formats the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("f=%.1fGHz L2/L1=(%d,%d) ROB=%d",
		c.FreqGHz(), c.L2Ways(), c.L1Ways(), c.ROBEntries())
}

// BaselineConfig is the fixed configuration of the paper's Baseline
// architecture for E×D (Table III: 1.3 GHz, (6,3) ways, 48-entry ROB).
func BaselineConfig() Config {
	return Config{FreqIdx: 8, CacheIdx: 1, ROBIdx: 2}
}

// MidrangeConfig is where the optimizer starts each search (§VI-B:
// "it starts by setting the inputs to their midrange values: 1 GHz
// frequency and (4,2) associativity").
func MidrangeConfig() Config {
	return Config{FreqIdx: 5, CacheIdx: 2, ROBIdx: 3}
}

// NearestConfig maps continuous knob requests (frequency in GHz, cache
// size in L2 ways, ROB size in entries) to the nearest legal Config.
// This is the actuator quantization step: architectural inputs take
// discrete values (paper §IV-B2).
func NearestConfig(freqGHz, l2Ways, robEntries float64) Config {
	cfg := Config{}
	best := 1e300
	for i, f := range FreqSettingsGHz {
		if d := absf(f - freqGHz); d < best {
			best, cfg.FreqIdx = d, i
		}
	}
	best = 1e300
	for i, cs := range CacheSettings {
		if d := absf(float64(cs[0]) - l2Ways); d < best {
			best, cfg.CacheIdx = d, i
		}
	}
	best = 1e300
	for i, r := range ROBSettings {
		if d := absf(float64(r) - robEntries); d < best {
			best, cfg.ROBIdx = d, i
		}
	}
	return cfg
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// EpochSeconds is the control epoch length: the controller is invoked
// every 50 µs (Table III).
const EpochSeconds = 50e-6

// DVFSTransitionSeconds is the stall incurred when changing the DVFS
// operating point (Table III: 5 µs).
const DVFSTransitionSeconds = 5e-6

// FreqIndexHysteresis quantizes a frequency request (GHz) to a level
// index like NearestConfig, but with a hysteresis band around the
// current index cur: the knob only moves when the request crosses the
// midpoint to the next level by more than margin of the step size. This
// suppresses the limit cycling a quantized actuator otherwise exhibits
// around a steady-state request between two levels.
func FreqIndexHysteresis(freqGHz float64, cur int, margin float64) int {
	return freqGrid.index(cur, freqGHz, margin)
}

// CacheIndexHysteresis is FreqIndexHysteresis for the cache knob
// (request in L2 ways; cur and the result index CacheSettings, largest
// first).
func CacheIndexHysteresis(l2Ways float64, cur int, margin float64) int {
	n := len(cacheGrid.levels)
	return n - 1 - cacheGrid.index(n-1-cur, l2Ways, margin)
}

// ROBIndexHysteresis is FreqIndexHysteresis for the ROB knob (request
// in entries).
func ROBIndexHysteresis(robEntries float64, cur int, margin float64) int {
	return robGrid.index(cur, robEntries, margin)
}

// The level tables the quantizer reads, ascending and read-only,
// snapshotted at init with their uniform-grid fits.
var (
	freqGrid  = newKnobGrid(FreqLevels())
	cacheGrid = newKnobGrid(CacheWaysLevels())
	robGrid   = newKnobGrid(ROBLevels())
)

// knobGrid is one knob's ascending levels and, when they are uniform,
// the grid base + i/invStep they lie on.
type knobGrid struct {
	levels        []float64
	base, invStep float64
	uniform       bool
}

// newKnobGrid fits base + i·h to the levels and marks the grid uniform
// when every level is within a quarter step of it: then the arithmetic
// candidate in index lands within one slot of the nearest level.
func newKnobGrid(levels []float64) knobGrid {
	g := knobGrid{levels: levels}
	n := len(levels)
	if n < 2 {
		return g
	}
	h := (levels[n-1] - levels[0]) / float64(n-1)
	if !(h > 0) || math.IsInf(h, 0) {
		return g
	}
	for i, l := range levels {
		if math.Abs(l-(levels[0]+h*float64(i))) > 0.25*h {
			return g
		}
	}
	g.base, g.invStep, g.uniform = levels[0], 1/h, true
	return g
}

// index is hysteresisIndex(g.levels, cur, req, margin) computed without
// scanning a uniform grid: an arithmetic candidate and a 3-wide window
// reproduce the scan's first-minimum-wins choice. It returns the scan's
// answer because:
//   - the window compares the same |level-req| distances in the same
//     strict-improvement order, seeded with the current level's;
//   - for a finite request every nearest level is within one slot of
//     the candidate (the grid is uniform to a quarter step), so all
//     minimum-distance levels lie in the window — except possibly past
//     its left edge, where the scan decides;
//   - NaN, ±Inf and requests too far off the grid for an int
//     candidate go to the scan, which holds the current level on NaN.
//
// math.Abs replaces the scan's absf; they differ only in the sign of a
// zero, which no distance comparison sees. TestWindowMatchesScan and
// FuzzQuantHysteresis pin the equivalence.
func (g *knobGrid) index(cur int, req, margin float64) int {
	levels := g.levels
	n := len(levels)
	if !g.uniform {
		return hysteresisIndex(levels, cur, req, margin)
	}
	if uint(cur) >= uint(n) {
		cur = 0
	}
	t := (req-g.base)*g.invStep + 0.5
	k := int(t)
	if !(t >= 1) {
		if !(t >= -1e18) { // NaN, -Inf, or too far below to index
			return hysteresisIndex(levels, cur, req, margin)
		}
		k = 0
	} else if k >= n {
		if t > 1e18 { // +Inf, or too far above to index
			return hysteresisIndex(levels, cur, req, margin)
		}
		k = n - 1
	}
	best := cur
	bd := math.Abs(levels[cur] - req)
	lo, hi := max(k-1, 0), min(k+1, n-1)
	for i := lo; i <= hi; i++ {
		if d := math.Abs(levels[i] - req); d < bd {
			best, bd = i, d
		}
	}
	if best == lo && lo > 0 {
		// The winner sits on the window's left edge: an exact tie further
		// left could be the scan's first minimum. Rare (an off-by-one
		// candidate on an exact midpoint); the scan decides.
		return hysteresisIndex(levels, cur, req, margin)
	}
	if best == cur {
		return cur
	}
	l, h := min(cur, best), max(cur, best)
	step := (levels[h] - levels[l]) / float64(h-l)
	if math.Abs(req-levels[cur]) <= (0.5+margin)*step {
		return cur
	}
	return best
}

// hysteresisIndex picks an index from ascending levels: the nearest one,
// unless the request is within (0.5+margin) steps of the current level.
// It is the quantizer's fallback for non-uniform grids, non-finite
// requests and window-edge ties, and the tests' oracle.
func hysteresisIndex(levels []float64, curIdx int, req, margin float64) int {
	if curIdx < 0 || curIdx >= len(levels) {
		curIdx = 0
	}
	best := curIdx
	bd := absf(levels[curIdx] - req)
	for i, l := range levels {
		if d := absf(l - req); d < bd {
			best, bd = i, d
		}
	}
	if best == curIdx {
		return curIdx
	}
	// Step size local to the boundary being crossed.
	lo, hi := curIdx, best
	if lo > hi {
		lo, hi = hi, lo
	}
	step := (levels[hi] - levels[lo]) / float64(hi-lo)
	if absf(req-levels[curIdx]) <= (0.5+margin)*step {
		return curIdx
	}
	return best
}
