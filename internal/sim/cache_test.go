package sim

import (
	"errors"
	"fmt"
)

// Cache geometry and miss-curve measurement. The epoch-level processor
// model evaluates hand-set power-law miss curves (internal/workloads);
// CalibrateMissCurve measures miss rates from a synthetic address trace
// (trace_test.go), so the tests can hold that form against the
// set-associative cache simulator it is verified against
// (cachesim_test.go).

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes int // total capacity with all ways enabled
	Ways      int // associativity with all ways enabled
	LineBytes int
}

// Sets returns the number of sets.
func (g CacheGeometry) Sets() int {
	return g.SizeBytes / (g.LineBytes * g.Ways)
}

// Validate checks the geometry is a usable power-of-two organization.
func (g CacheGeometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0 {
		return errors.New("sim: cache geometry fields must be positive")
	}
	if g.SizeBytes%(g.LineBytes*g.Ways) != 0 {
		return fmt.Errorf("sim: size %d not divisible by ways*line %d", g.SizeBytes, g.LineBytes*g.Ways)
	}
	sets := g.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("sim: set count %d is not a power of two", sets)
	}
	if g.LineBytes&(g.LineBytes-1) != 0 {
		return fmt.Errorf("sim: line size %d is not a power of two", g.LineBytes)
	}
	return nil
}

// MissCurvePoint is one calibration measurement.
type MissCurvePoint struct {
	Ways     int
	MissRate float64
}

// CalibrateMissCurve reports the steady-state miss rate at every
// enabled-way count from 1 to the full associativity (warming up on the
// first warmup accesses).
//
// It runs Mattson's LRU stack-distance algorithm: a single pass over
// the trace maintains, per set, the distinct lines ordered most- to
// least-recently used. An access whose line sits at stack depth d would
// hit in every cache with at least d ways and miss in every smaller
// one, so one histogram of hit depths yields the miss rate for all way
// counts at once — W times cheaper than replaying the trace per way
// count.
//
// The result is bit-for-bit identical to the per-way replay
// (CalibrateMissCurveReplay, kept as the test oracle): the set index
// derives from the full geometry, so way gating changes a set's
// capacity but never its mapping; an LRU cache with w enabled ways
// holds exactly the w most recently used distinct lines of each set
// (invalid-way fills are just a shorter stack); and the miss counts are
// exact integers divided identically.
func CalibrateMissCurve(g CacheGeometry, trace []uint64, warmup int) ([]MissCurvePoint, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if warmup < 0 {
		return nil, errors.New("sim: negative warmup")
	}
	if warmup >= len(trace) {
		return nil, errors.New("sim: warmup consumes the whole trace")
	}
	sets := g.Sets()
	w := g.Ways
	// stack[set*w : set*w+size[set]] holds the set's distinct lines,
	// most recently used first.
	stack := make([]int64, sets*w)
	size := make([]int, sets)
	// hits[d] counts post-warmup accesses with stack distance exactly d.
	hits := make([]uint64, w+1)
	var counted uint64
	lineBytes := uint64(g.LineBytes)
	usets := uint64(sets)
	for idx, addr := range trace {
		line := addr / lineBytes
		set := int(line % usets)
		tag := int64(line / usets)
		base := set * w
		n := size[set]
		s := stack[base : base+n]
		depth := 0 // 1-based stack distance; 0 = not resident at any size
		for i, tg := range s {
			if tg == tag {
				depth = i + 1
				break
			}
		}
		if idx >= warmup {
			counted++
			if depth > 0 {
				hits[depth]++
			}
		}
		// Move the line to the front; on a cold line, grow the stack up
		// to the full associativity (beyond that the LRU line falls off).
		if depth > 0 {
			copy(s[1:depth], s[:depth-1])
			s[0] = tag
		} else {
			if n < w {
				n++
				size[set] = n
				s = stack[base : base+n]
			}
			copy(s[1:], s[:n-1])
			s[0] = tag
		}
	}
	out := make([]MissCurvePoint, 0, w)
	var cum uint64
	for ways := 1; ways <= w; ways++ {
		cum += hits[ways]
		out = append(out, MissCurvePoint{Ways: ways, MissRate: float64(counted-cum) / float64(counted)})
	}
	return out, nil
}
