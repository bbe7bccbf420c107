package sim

import (
	"math"
	"math/rand"
	"testing"
)

// The quantizer's windowed path against the full scan it replaced,
// which stays as its fallback and as the oracle here.

// margins are the hysteresis margins the tests quantize with; 0.25 is
// the controllers' (core.ActuatorHysteresis).
var margins = []float64{0, 0.1, 0.25, 0.5, 1}

// grids names the three knob grids.
var grids = []struct {
	name string
	g    *knobGrid
}{{"freq", &freqGrid}, {"cache", &cacheGrid}, {"rob", &robGrid}}

// knobConfig quantizes each knob through its own entry point, as the
// controllers do.
func knobConfig(freqGHz, l2Ways, robEntries float64, cur Config, margin float64) Config {
	return Config{
		FreqIdx:  FreqIndexHysteresis(freqGHz, cur.FreqIdx, margin),
		CacheIdx: CacheIndexHysteresis(l2Ways, cur.CacheIdx, margin),
		ROBIdx:   ROBIndexHysteresis(robEntries, cur.ROBIdx, margin),
	}
}

// scanConfig is knobConfig computed by the full scan alone, the
// implementation the windowed path replaced.
func scanConfig(freqGHz, l2Ways, robEntries float64, cur Config, margin float64) Config {
	nc := len(cacheGrid.levels)
	return Config{
		FreqIdx:  hysteresisIndex(freqGrid.levels, cur.FreqIdx, freqGHz, margin),
		CacheIdx: nc - 1 - hysteresisIndex(cacheGrid.levels, nc-1-cur.CacheIdx, l2Ways, margin),
		ROBIdx:   hysteresisIndex(robGrid.levels, cur.ROBIdx, robEntries, margin),
	}
}

// denseRequests returns requests that cover a grid densely: a sweep at
// 1/64 of a step from two steps below to two steps above the range,
// every level, every midpoint and every hysteresis boundary of every
// pair of levels — each exact and one ulp either side — and the
// non-finite and extreme values.
func denseRequests(levels []float64) []float64 {
	n := len(levels)
	h := (levels[n-1] - levels[0]) / float64(n-1)
	var reqs []float64
	for x := levels[0] - 2*h; x <= levels[n-1]+2*h; x += h / 64 {
		reqs = append(reqs, x)
	}
	around := func(x float64) {
		reqs = append(reqs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for i, a := range levels {
		around(a)
		for j := i + 1; j < n; j++ {
			b := levels[j]
			around((a + b) / 2)
			step := (b - a) / float64(j-i)
			for _, m := range margins {
				around(a + (0.5+m)*step)
				around(b - (0.5+m)*step)
			}
		}
	}
	return append(reqs, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, math.SmallestNonzeroFloat64)
}

// TestWindowMatchesScan checks the windowed path against the scan for
// every current index (two out of range on each side included), every
// margin, and the dense request set of each knob grid.
func TestWindowMatchesScan(t *testing.T) {
	for _, kg := range grids {
		g := kg.g
		if !g.uniform {
			t.Fatalf("%s grid is not uniform: the windowed path is untested", kg.name)
		}
		n := len(g.levels)
		reqs := denseRequests(g.levels)
		for cur := -2; cur < n+2; cur++ {
			for _, m := range margins {
				for _, req := range reqs {
					want := hysteresisIndex(g.levels, cur, req, m)
					if got := g.index(cur, req, m); got != want {
						t.Fatalf("%s cur=%d margin=%v req=%v (%#x): window %d, scan %d",
							kg.name, cur, m, req, math.Float64bits(req), got, want)
					}
				}
			}
		}
	}
}

// randReq draws quantizer requests from a mixture that stresses every
// branch: in-range uniforms, exact levels, exact midpoints (and their
// neighborhoods), far out-of-range magnitudes, and non-finite sentinels.
func randReq(rng *rand.Rand, levels []float64) float64 {
	lo, hi := levels[0], levels[len(levels)-1]
	span := hi - lo
	switch rng.Intn(10) {
	case 0: // exact level
		return levels[rng.Intn(len(levels))]
	case 1: // exact midpoint between adjacent levels (ties)
		i := rng.Intn(len(levels) - 1)
		return (levels[i] + levels[i+1]) / 2
	case 2: // midpoint neighborhood
		i := rng.Intn(len(levels) - 1)
		return (levels[i]+levels[i+1])/2 + (rng.Float64()-0.5)*1e-12
	case 3: // far out of range
		return (rng.Float64()*2 - 1) * 1e6
	case 4: // special values
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -1e300}[rng.Intn(6)]
	default: // in and slightly out of range
		return lo - 0.5*span + rng.Float64()*2*span
	}
}

// TestNearestConfigHysteresisMatchesScan checks the per-knob entry
// points against the scan across random current configurations
// (out-of-range indices included) and requests.
func TestNearestConfigHysteresisMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		cur := Config{
			FreqIdx:  rng.Intn(numFreqLevels+4) - 2,
			CacheIdx: rng.Intn(numCacheLevels+4) - 2,
			ROBIdx:   rng.Intn(numROBLevels+4) - 2,
		}
		f, c, r := randReq(rng, freqGrid.levels), randReq(rng, cacheGrid.levels), randReq(rng, robGrid.levels)
		m := margins[rng.Intn(len(margins))]
		want := scanConfig(f, c, r, cur, m)
		if got := knobConfig(f, c, r, cur, m); got != want {
			t.Fatalf("cur=%+v req=(%v,%v,%v) margin=%v: %+v, scan %+v", cur, f, c, r, m, got, want)
		}
	}
}

// TestUniformGridDetection pins which grids take the windowed path and
// that grids it cannot serve are refused.
func TestUniformGridDetection(t *testing.T) {
	for _, levels := range [][]float64{{2, 4, 8, 16}, {1}, {1, 1}, {1, math.Inf(1)}} {
		if newKnobGrid(levels).uniform {
			t.Fatalf("%v accepted as a uniform grid", levels)
		}
	}
	for _, kg := range grids {
		if !kg.g.uniform {
			t.Fatalf("%s grid rejected: the windowed path is dead", kg.name)
		}
	}
	// A non-uniform grid quantizes by the scan.
	g := newKnobGrid([]float64{2, 4, 8, 16})
	for _, req := range denseRequests(g.levels) {
		for cur := 0; cur < 4; cur++ {
			if got, want := g.index(cur, req, 0.25), hysteresisIndex(g.levels, cur, req, 0.25); got != want {
				t.Fatalf("non-uniform cur=%d req=%v: %d, scan %d", cur, req, got, want)
			}
		}
	}
}

// FuzzQuantHysteresis fuzzes raw request bits, current indices and the
// margin against the scan.
func FuzzQuantHysteresis(f *testing.F) {
	f.Add(uint64(0x4004000000000000), uint64(0x4010000000000000), uint64(0x4050000000000000), 3, 1, 4, 0.25)
	f.Add(^uint64(0), uint64(0x7FF0000000000000), uint64(0xFFF0000000000000), 0, 0, 0, 0.25) // NaN, +Inf, -Inf
	f.Add(uint64(0x8000000000000000), uint64(0), uint64(0x3FF0000000000000), 15, 3, 7, 0.0)  // -0, 0, 1
	f.Fuzz(func(t *testing.T, fb, cb, rb uint64, fc, cc, rc int, margin float64) {
		cur := Config{FreqIdx: fc, CacheIdx: cc, ROBIdx: rc}
		fReq, cReq, rReq := math.Float64frombits(fb), math.Float64frombits(cb), math.Float64frombits(rb)
		want := scanConfig(fReq, cReq, rReq, cur, margin)
		if got := knobConfig(fReq, cReq, rReq, cur, margin); got != want {
			t.Fatalf("cur=%+v req=(%v,%v,%v) margin=%v: %+v, scan %+v", cur, fReq, cReq, rReq, margin, got, want)
		}
	})
}
