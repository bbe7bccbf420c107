package sim

import (
	"math"
	"math/rand"
)

// Synthetic memory address stream generators. They stand in for the SPEC
// CPU2006 address traces the paper's simulator executed: each generator
// produces streams with a controllable working set, locality, and stride
// mix so that a set-associative cache exhibits realistic
// miss-rate-vs-ways curves.

// TraceSpec parameterizes a synthetic address stream.
type TraceSpec struct {
	// WorkingSetBytes is the span of the hot region.
	WorkingSetBytes uint64
	// ColdFraction is the probability an access goes to a large cold
	// region (streaming / pointer-chasing component).
	ColdFraction float64
	// ColdSpanBytes is the span of the cold region.
	ColdSpanBytes uint64
	// ZipfS shapes the hot-region reuse distribution: larger = more
	// concentrated reuse (higher temporal locality).
	ZipfS float64
	// StrideFraction is the probability an access continues a sequential
	// stride run instead of sampling the hot distribution.
	StrideFraction float64
	// LoopFraction is the probability an access continues a cyclic
	// line-by-line sweep over the working set — the classic array-loop
	// pattern that thrashes any cache smaller than the working set and
	// hits in any larger one.
	LoopFraction float64
	// LineBytes aligns generated addresses.
	LineBytes uint64
}

// DefaultTraceSpec is a cache-friendly mixed workload.
func DefaultTraceSpec() TraceSpec {
	return TraceSpec{
		WorkingSetBytes: 64 << 10,
		ColdFraction:    0.02,
		ColdSpanBytes:   64 << 20,
		ZipfS:           1.2,
		StrideFraction:  0.3,
		LineBytes:       64,
	}
}

// TraceGen produces addresses one at a time.
type TraceGen struct {
	spec TraceSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	// stride run state
	strideAddr uint64
	strideLeft int
	// cyclic sweep cursor
	loopAddr uint64
}

// NewTraceGen builds a generator; the spec is sanitized to usable values.
func NewTraceGen(spec TraceSpec, rng *rand.Rand) *TraceGen {
	if spec.LineBytes == 0 {
		spec.LineBytes = 64
	}
	if spec.WorkingSetBytes < spec.LineBytes {
		spec.WorkingSetBytes = spec.LineBytes
	}
	if spec.ColdSpanBytes < spec.WorkingSetBytes {
		spec.ColdSpanBytes = spec.WorkingSetBytes * 16
	}
	if spec.ZipfS <= 1 {
		spec.ZipfS = 1.01
	}
	lines := spec.WorkingSetBytes / spec.LineBytes
	if lines < 1 {
		lines = 1
	}
	g := &TraceGen{spec: spec, rng: rng}
	g.zipf = rand.NewZipf(rng, spec.ZipfS, 1, lines-1+1)
	return g
}

// Next returns the next address in the stream.
func (g *TraceGen) Next() uint64 {
	s := g.spec
	// Continue a stride run.
	if g.strideLeft > 0 {
		g.strideLeft--
		g.strideAddr += s.LineBytes
		return g.strideAddr
	}
	r := g.rng.Float64()
	switch {
	case r < s.ColdFraction:
		// Cold access far away.
		return (g.rng.Uint64() % (s.ColdSpanBytes / s.LineBytes)) * s.LineBytes
	case r < s.ColdFraction+s.LoopFraction:
		// Cyclic sweep over the working set.
		g.loopAddr += s.LineBytes
		if g.loopAddr >= s.WorkingSetBytes {
			g.loopAddr = 0
		}
		return g.loopAddr
	case r < s.ColdFraction+s.LoopFraction+s.StrideFraction:
		// Start a new stride run inside the working set.
		g.strideAddr = (g.rng.Uint64() % (s.WorkingSetBytes / s.LineBytes)) * s.LineBytes
		g.strideLeft = 4 + g.rng.Intn(12)
		return g.strideAddr
	default:
		// Zipf-distributed reuse of hot lines: line 0 hottest.
		line := g.zipf.Uint64()
		// Scatter the rank ordering across the set-index space so hot
		// lines do not all collide in set 0.
		line = scatter(line) % (s.WorkingSetBytes / s.LineBytes)
		return line * s.LineBytes
	}
}

// Generate returns n addresses.
func (g *TraceGen) Generate(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// scatter is a fixed bijective mixing function (splitmix64 finalizer).
func scatter(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FitPowerLawMissCurve fits the two-parameter model
//
//	miss(ways) ≈ floor + (m1 - floor) · ways^(-alpha)
//
// to calibration points (least squares on the log of the excess over the
// floor), returning (m1, alpha, floor). The epoch model uses this form
// for its per-workload miss curves; this fit ties those curves to the
// calibrated miss rates.
func FitPowerLawMissCurve(points []MissCurvePoint) (m1, alpha, floor float64) {
	if len(points) == 0 {
		return 0, 0, 0
	}
	last := points[len(points)-1].MissRate
	bestSSE := math.Inf(1)
	// Grid-search the floor; for each candidate, fit log(miss - floor)
	// linearly in log(ways) and keep the floor minimizing the squared
	// error of the reconstructed curve.
	for i := 0; i <= 40; i++ {
		fl := last * float64(i) / 41.0
		var sx, sy, sxx, sxy float64
		n := 0
		for _, p := range points {
			ex := p.MissRate - fl
			if ex <= 0 {
				continue
			}
			x := math.Log(float64(p.Ways))
			y := math.Log(ex)
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			n++
		}
		if n < 2 {
			continue
		}
		den := float64(n)*sxx - sx*sx
		if den == 0 {
			continue
		}
		slope := (float64(n)*sxy - sx*sy) / den
		intercept := (sy - slope*sx) / float64(n)
		a := -slope
		m := math.Exp(intercept) + fl
		var sse float64
		for _, p := range points {
			pred := fl + (m-fl)*math.Pow(float64(p.Ways), -a)
			d := pred - p.MissRate
			sse += d * d
		}
		if sse < bestSSE {
			bestSSE, m1, alpha, floor = sse, m, a, fl
		}
	}
	if math.IsInf(bestSSE, 1) {
		return points[0].MissRate, 0, last
	}
	return m1, alpha, floor
}
