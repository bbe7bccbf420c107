package sim

import (
	"errors"
	"fmt"
	"math"
)

// The set-associative cache simulator with LRU replacement and way
// power gating. Programs calibrate miss curves with the single-pass
// CalibrateMissCurve; this simulator is the ground truth the tests hold
// it and the analytic miss model against, directly and through the
// trace-driven processor (tracemode_test.go).

// Cache is a single-level set-associative cache with LRU replacement.
// Ways can be power-gated at runtime: gating way w invalidates its
// contents (the paper resizes the caches by "power gating one or more
// ways", losing their state).
type Cache struct {
	geom        CacheGeometry
	enabledWays int
	// tags[set*ways+way]; valid bit encoded as tag >= 0 (-1 invalid).
	tags []int64
	// lruAge[set*ways+way]: larger = more recently used.
	lruAge  []uint64
	ageTick uint64

	accesses, misses uint64
}

// NewCache builds a cache with all ways enabled.
func NewCache(g CacheGeometry) (*Cache, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Sets() * g.Ways
	c := &Cache{geom: g, enabledWays: g.Ways, tags: make([]int64, n), lruAge: make([]uint64, n)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c, nil
}

// EnabledWays returns the number of active ways.
func (c *Cache) EnabledWays() int { return c.enabledWays }

// SetEnabledWays power-gates or re-enables ways. Gated ways lose their
// contents immediately; re-enabled ways come back cold.
func (c *Cache) SetEnabledWays(w int) error {
	if w < 1 || w > c.geom.Ways {
		return fmt.Errorf("sim: enabled ways %d out of range [1,%d]", w, c.geom.Ways)
	}
	if w < c.enabledWays {
		sets := c.geom.Sets()
		for s := 0; s < sets; s++ {
			for way := w; way < c.geom.Ways; way++ {
				c.tags[s*c.geom.Ways+way] = -1
			}
		}
	}
	c.enabledWays = w
	return nil
}

// renormalizeAges restores stamp headroom when ageTick is about to
// wrap.
//
// Invariant: lruAge stamps are only ever compared within one set, and a
// larger stamp always means more recently touched; ageTick is the
// strictly increasing stamp source. If the tick wrapped to zero, every
// fresh stamp would compare older than the resident ones and Access
// would evict the most recently used line instead of the least.
// Renormalization re-stamps each set's ways with their rank in age
// order (1..Ways) — preserving the relative order, the only property
// Access reads — and restarts the tick just above the largest stamp.
func (c *Cache) renormalizeAges() {
	ways := c.geom.Ways
	sets := c.geom.Sets()
	ranks := make([]uint64, ways)
	for s := 0; s < sets; s++ {
		ages := c.lruAge[s*ways : (s+1)*ways]
		for w := range ages {
			// O(Ways²) ranking; this path runs once per 2^64 accesses.
			// Ties (e.g. never-touched ways, both stamped 0) break by
			// way index for determinism.
			rank := uint64(1)
			for v := range ages {
				if ages[v] < ages[w] || (ages[v] == ages[w] && v < w) {
					rank++
				}
			}
			ranks[w] = rank
		}
		copy(ages, ranks)
	}
	c.ageTick = uint64(ways)
}

// Access looks up the line containing addr, updating LRU state and
// filling on miss. It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	if c.ageTick == math.MaxUint64 {
		c.renormalizeAges()
	}
	c.ageTick++
	line := addr / uint64(c.geom.LineBytes)
	sets := uint64(c.geom.Sets())
	set := int(line % sets)
	tag := int64(line / sets)
	base := set * c.geom.Ways
	// Lookup.
	for way := 0; way < c.enabledWays; way++ {
		if c.tags[base+way] == tag {
			c.lruAge[base+way] = c.ageTick
			return true
		}
	}
	c.misses++
	// Fill: choose an invalid way or evict the LRU way.
	victim := 0
	oldest := ^uint64(0)
	for way := 0; way < c.enabledWays; way++ {
		if c.tags[base+way] < 0 {
			victim = way
			break
		}
		if c.lruAge[base+way] < oldest {
			oldest = c.lruAge[base+way]
			victim = way
		}
	}
	c.tags[base+victim] = tag
	c.lruAge[base+victim] = c.ageTick
	return false
}

// Stats returns cumulative accesses and misses.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns misses/accesses (0 if no accesses).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// ResetStats clears counters without touching contents.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// Hierarchy is a two-level data hierarchy (L1D backed by L2) with
// per-level way gating, matching the paper's resizable L1/L2.
type Hierarchy struct {
	L1, L2 *Cache
}

// NewHierarchy builds the paper's memory system: 32 KB 4-way L1D and
// 256 KB 8-way L2, 64 B lines (Table III, at full size).
func NewHierarchy() (*Hierarchy, error) {
	l1, err := NewCache(CacheGeometry{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64})
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(CacheGeometry{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2}, nil
}

// AccessResult classifies where an access was served.
type AccessResult int

// Access outcomes.
const (
	HitL1 AccessResult = iota
	HitL2
	MissAll // served by main memory
)

// Access performs an L1 lookup, falling through to L2 and memory.
func (h *Hierarchy) Access(addr uint64) AccessResult {
	if h.L1.Access(addr) {
		return HitL1
	}
	if h.L2.Access(addr) {
		return HitL2
	}
	return MissAll
}

// SetWays applies a cache setting (L2 ways, L1 ways) to both levels.
func (h *Hierarchy) SetWays(l2Ways, l1Ways int) error {
	if err := h.L2.SetEnabledWays(l2Ways); err != nil {
		return err
	}
	return h.L1.SetEnabledWays(l1Ways)
}

// CalibrateMissCurveReplay replays the trace through a fresh cache per
// enabled-way count — W full passes. It is the brute-force oracle the
// single-pass CalibrateMissCurve is verified against; both return
// identical results for every way count.
func CalibrateMissCurveReplay(g CacheGeometry, trace []uint64, warmup int) ([]MissCurvePoint, error) {
	if warmup < 0 {
		return nil, errors.New("sim: negative warmup")
	}
	if warmup >= len(trace) {
		return nil, errors.New("sim: warmup consumes the whole trace")
	}
	out := make([]MissCurvePoint, 0, g.Ways)
	for w := 1; w <= g.Ways; w++ {
		c, err := NewCache(g)
		if err != nil {
			return nil, err
		}
		if err := c.SetEnabledWays(w); err != nil {
			return nil, err
		}
		for _, a := range trace[:warmup] {
			c.Access(a)
		}
		c.ResetStats()
		for _, a := range trace[warmup:] {
			c.Access(a)
		}
		out = append(out, MissCurvePoint{Ways: w, MissRate: c.MissRate()})
	}
	return out, nil
}
