// Package heuristic implements the paper's "Heuristic" comparison
// architecture (Table IV): a sophisticated rule-based controller in the
// style of Zhang & Hoffmann (ASPLOS 2016), tuned on the training set.
//
// The algorithm has the paper's two steps (§VII-C):
//
//  1. it ranks the adaptive features (cache size, frequency, ROB size)
//     by their expected impact on the current application, using the
//     measured memory-boundedness (L2 misses per kilo-instruction, as in
//     Isci et al.), and
//  2. in tracking experiments it applies threshold rules on the output
//     errors, actuating the ranked features in order; in optimization
//     experiments it performs an iterative coordinate search, testing a
//     few configurations of each feature in rank order.
//
// Its characteristic weaknesses — static thresholds tuned offline and
// one-knob-at-a-time moves — are exactly what the paper contrasts with
// MIMO control. Note that, unlike the MIMO controller, the tracking
// rules and the search rules are separate algorithms, and the 3-input
// variant required re-deriving the rule set (§VII-C: "the algorithms
// ... have to be completely redesigned from scratch").
package heuristic

import (
	"errors"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
)

// Options selects the rule set.
type Options struct {
	// ThreeInput enables the ROB knob; the rule set changes with it.
	ThreeInput bool
}

// The rule constants, obtained by offline tuning on the paper's
// training set (sjeng, gobmk, leslie3d, namd): powerDeadband and
// ipsDeadband are the relative errors below which no action is taken;
// memBoundL2MPKI is the L2 miss rate above which the application is
// classified memory-bound, changing the feature ranking; emaAlpha
// smooths the noisy sensors before rule evaluation; decisionEveryEpochs
// rate-limits actuation.
const (
	powerDeadband       float64 = 0.04
	ipsDeadband         float64 = 0.05
	memBoundL2MPKI      float64 = 5.0
	emaAlpha            float64 = 0.25
	decisionEveryEpochs         = 4
)

// Tracker is the tracking-mode heuristic controller.
type Tracker struct {
	opts Options

	ipsTarget, powerTarget float64

	emaIPS, emaP, emaL2 float64
	haveEMA             bool
	sinceDecision       int
	cur                 sim.Config
	haveCur             bool
}

// NewTracker builds the tracking controller.
func NewTracker(opts Options) *Tracker {
	t := &Tracker{opts: opts}
	t.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	return t
}

// Name implements core.ArchController.
func (h *Tracker) Name() string { return "Heuristic" }

// SetTargets implements core.ArchController.
func (h *Tracker) SetTargets(ips, power float64) { h.ipsTarget, h.powerTarget = ips, power }

// Targets implements core.ArchController.
func (h *Tracker) Targets() (float64, float64) { return h.ipsTarget, h.powerTarget }

// Reset implements core.ArchController.
func (h *Tracker) Reset() {
	h.haveEMA = false
	h.haveCur = false
	h.sinceDecision = 0
}

// Step implements core.ArchController: threshold rules over smoothed
// errors, one ranked-feature step per decision interval.
func (h *Tracker) Step(t sim.Telemetry) sim.Config {
	if !h.haveCur {
		h.cur = t.Config
		h.haveCur = true
	}
	h.observe(t)
	h.sinceDecision++
	if !h.haveEMA || h.sinceDecision < decisionEveryEpochs {
		return h.cur
	}
	h.sinceDecision = 0

	eP := (h.emaP - h.powerTarget) / h.powerTarget
	eI := (h.emaIPS - h.ipsTarget) / h.ipsTarget
	memBound := h.emaL2 > memBoundL2MPKI

	switch {
	case eP > powerDeadband:
		// Over the power budget: power has priority. Frequency has the
		// largest power impact; if it is already at the floor, shed the
		// next-ranked feature.
		if !h.dec(&h.cur.FreqIdx, len(sim.FreqSettingsGHz)) {
			if !h.decCache() && h.opts.ThreeInput {
				h.dec(&h.cur.ROBIdx, len(sim.ROBSettings))
			}
		}
	case eI < -ipsDeadband && eP < -powerDeadband/2:
		// Too slow with power headroom: grow the feature ranked highest
		// for IPS on this application class.
		h.boostIPS(memBound)
	case eI < -ipsDeadband:
		// Too slow at the power limit: trade features — shrink a
		// low-IPS-impact power consumer, grow a high-IPS one.
		if memBound {
			if !h.incCache() {
				h.dec(&h.cur.FreqIdx, len(sim.FreqSettingsGHz))
			}
		} else {
			if !h.decCache() {
				h.inc(&h.cur.FreqIdx, len(sim.FreqSettingsGHz))
			}
		}
	case eI > ipsDeadband && eP < -powerDeadband:
		// Faster than required with power headroom: nothing to fix.
	case eI > ipsDeadband:
		// Faster than required: save power with the cheapest lever.
		h.dec(&h.cur.FreqIdx, len(sim.FreqSettingsGHz))
	}
	return h.cur
}

// usable reports whether a sensor reading can enter the rule state: a
// NaN or Inf sample would poison the EMAs permanently (NaN never decays
// out of an exponential average), so corrupt samples are skipped and the
// last good smoothed value stands in — the same last-good substitution
// the supervised runtime applies (internal/supervisor).
func usable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (h *Tracker) observe(t sim.Telemetry) {
	if !h.haveEMA {
		if !usable(t.IPS) || !usable(t.PowerW) || !usable(t.L2MPKI) {
			return
		}
		h.emaIPS, h.emaP, h.emaL2 = t.IPS, t.PowerW, t.L2MPKI
		h.haveEMA = true
		return
	}
	a := emaAlpha
	if usable(t.IPS) {
		h.emaIPS += a * (t.IPS - h.emaIPS)
	}
	if usable(t.PowerW) {
		h.emaP += a * (t.PowerW - h.emaP)
	}
	if usable(t.L2MPKI) {
		h.emaL2 += a * (t.L2MPKI - h.emaL2)
	}
}

// boostIPS grows the most impactful feature for this application class.
func (h *Tracker) boostIPS(memBound bool) {
	if memBound {
		// Cache first, then ROB (more MLP), then frequency.
		if h.incCache() {
			return
		}
		if h.opts.ThreeInput && h.inc(&h.cur.ROBIdx, len(sim.ROBSettings)) {
			return
		}
		h.inc(&h.cur.FreqIdx, len(sim.FreqSettingsGHz))
		return
	}
	// Compute-bound: frequency first, then ROB, then cache.
	if h.inc(&h.cur.FreqIdx, len(sim.FreqSettingsGHz)) {
		return
	}
	if h.opts.ThreeInput && h.inc(&h.cur.ROBIdx, len(sim.ROBSettings)) {
		return
	}
	h.incCache()
}

// inc/dec move an index one step within [0, n), reporting success.
func (h *Tracker) inc(idx *int, n int) bool {
	if *idx+1 >= n {
		return false
	}
	*idx++
	return true
}

func (h *Tracker) dec(idx *int, n int) bool {
	if *idx <= 0 {
		return false
	}
	*idx--
	return true
}

// Cache indices are ordered largest-first, so growing the cache means
// decreasing the index.
func (h *Tracker) incCache() bool { return h.dec(&h.cur.CacheIdx, len(sim.CacheSettings)) }
func (h *Tracker) decCache() bool { return h.inc(&h.cur.CacheIdx, len(sim.CacheSettings)) }

// Searcher is the optimization-mode heuristic (minimize E·D^(k-1)): an
// iterative coordinate search testing a few configurations of each
// feature in impact-rank order, limited to the MIMO optimizer's
// core.DefaultOptimizerMaxTries trials per episode and timed by its
// settle, measure and period constants. A full search (from the
// midrange configuration) runs at startup and on phase changes; the
// periodic invocations re-measure the current point and probe
// refineTries moves of the top-ranked feature.
type Searcher struct {
	k    int
	opts Options

	backoff int

	// Search state.
	state       searchState
	stateEpochs int
	tries       int
	triesBudget int
	forceMid    bool
	rank        []knob
	rankPos     int
	dir         int // +1 growing, -1 shrinking the current knob
	cur         sim.Config
	bestCfg     sim.Config
	bestMetric  float64
	sumIPS      float64
	sumP        float64
	sumL2       float64
	sumN        int
	sincePeriod int
	lastPhase   int
	havePhase   bool

	ipsTarget, powerTarget float64
}

type searchState int

const (
	searchInit searchState = iota
	searchTrial
	searchHold
)

// refineTries is the trial budget of a periodic refinement episode.
const refineTries = 2

type knob int

const (
	knobFreq knob = iota
	knobCache
	knobROB
)

// SearcherConfig parameterizes the optimization heuristic.
type SearcherConfig struct {
	// K selects the metric IPS^K/P.
	K int
	Options
}

// NewSearcher builds the optimization-mode controller.
func NewSearcher(cfg SearcherConfig) (*Searcher, error) {
	if cfg.K < 1 {
		return nil, errors.New("heuristic: K must be >= 1")
	}
	s := &Searcher{
		k: cfg.K, opts: cfg.Options,
		ipsTarget: core.DefaultIPSTarget, powerTarget: core.DefaultPowerTarget,
	}
	s.Reset()
	return s, nil
}

// Name implements core.ArchController.
func (s *Searcher) Name() string { return "Heuristic" }

// SetTargets implements core.ArchController (unused by the search, kept
// for interface compatibility).
func (s *Searcher) SetTargets(ips, power float64) { s.ipsTarget, s.powerTarget = ips, power }

// Targets implements core.ArchController.
func (s *Searcher) Targets() (float64, float64) { return s.ipsTarget, s.powerTarget }

// Reset implements core.ArchController: the next Step starts a full
// search from the midrange configuration.
func (s *Searcher) Reset() {
	s.state = searchInit
	s.stateEpochs = 0
	s.tries = 0
	s.triesBudget = core.DefaultOptimizerMaxTries
	s.forceMid = true
	s.rankPos = 0
	s.dir = +1
	s.cur = sim.MidrangeConfig()
	s.bestCfg = s.cur
	s.bestMetric = 0
	s.sincePeriod = 0
	s.havePhase = false
	s.backoff = 1
	s.clearMeasure()
}

// refine begins a periodic refinement episode at the current point.
func (s *Searcher) refine() {
	s.state = searchInit
	s.stateEpochs = 0
	s.tries = 0
	s.triesBudget = refineTries
	s.forceMid = false
	s.rankPos = 0
	s.dir = +1
	s.bestCfg = s.cur
	s.bestMetric = 0
	s.sincePeriod = 0
	s.clearMeasure()
}

func (s *Searcher) clearMeasure() { s.sumIPS, s.sumP, s.sumL2, s.sumN = 0, 0, 0, 0 }

func (s *Searcher) metric(ips, power float64) float64 {
	if power <= 0 {
		return 0
	}
	return math.Pow(ips, float64(s.k)) / power
}

// Step implements core.ArchController.
func (s *Searcher) Step(t sim.Telemetry) sim.Config {
	if s.havePhase && t.PhaseID != s.lastPhase {
		s.Reset()
	}
	s.lastPhase = t.PhaseID
	s.havePhase = true
	s.sincePeriod++
	s.stateEpochs++

	switch s.state {
	case searchInit:
		if s.stateEpochs > core.DefaultOptimizerSettleEpochs && usable(t.IPS) && usable(t.PowerW) && usable(t.L2MPKI) {
			s.sumIPS += t.IPS
			s.sumP += t.PowerW
			s.sumL2 += t.L2MPKI
			s.sumN++
		}
		if s.stateEpochs >= core.DefaultOptimizerSettleEpochs+core.DefaultOptimizerMeasureEpochs && s.sumN > 0 {
			ips := s.sumIPS / float64(s.sumN)
			p := s.sumP / float64(s.sumN)
			l2 := s.sumL2 / float64(s.sumN)
			s.bestCfg = s.cur
			s.bestMetric = s.metric(ips, p)
			// Rank features by expected impact for this application
			// (Isci-style): memory-bound apps rank the cache first.
			// Reuse the rank slice's backing array across search
			// episodes: a long-lived searcher re-ranks every period and
			// must not allocate in steady state.
			if l2 > memBoundL2MPKI {
				if s.opts.ThreeInput {
					s.rank = append(s.rank[:0], knobCache, knobROB, knobFreq)
				} else {
					s.rank = append(s.rank[:0], knobCache, knobFreq)
				}
			} else {
				if s.opts.ThreeInput {
					s.rank = append(s.rank[:0], knobFreq, knobROB, knobCache)
				} else {
					s.rank = append(s.rank[:0], knobFreq, knobCache)
				}
			}
			s.rankPos = 0
			s.dir = +1
			s.nextTrial()
		}
		return s.cur

	case searchTrial:
		if s.stateEpochs > core.DefaultOptimizerSettleEpochs && usable(t.IPS) && usable(t.PowerW) {
			s.sumIPS += t.IPS
			s.sumP += t.PowerW
			s.sumN++
		}
		if s.stateEpochs >= core.DefaultOptimizerSettleEpochs+core.DefaultOptimizerMeasureEpochs && s.sumN > 0 {
			ips := s.sumIPS / float64(s.sumN)
			p := s.sumP / float64(s.sumN)
			m := s.metric(ips, p)
			if m > s.bestMetric {
				// Keep the move and continue along this knob.
				s.bestMetric = m
				s.bestCfg = s.cur
				s.backoff = 1
			} else {
				// Undo; try the other direction once, else next feature.
				s.cur = s.bestCfg
				if s.dir == +1 {
					s.dir = -1
				} else {
					s.dir = +1
					s.rankPos++
				}
			}
			if s.tries >= s.triesBudget || s.rankPos >= len(s.rank) {
				s.state = searchHold
				s.cur = s.bestCfg
				if s.backoff < 16 {
					s.backoff *= 2
				}
			} else {
				s.nextTrial()
			}
		}
		return s.cur

	default: // searchHold
		// Fruitless refinements back off exponentially, like the MIMO
		// optimizer, so a converged search stops paying exploration cost.
		if s.sincePeriod >= core.DefaultOptimizerPeriodEpochs*s.backoff {
			s.refine()
		}
		return s.cur
	}
}

// nextTrial moves the currently ranked knob one step in s.dir; if the
// knob is exhausted in that direction, it advances to the next feature.
func (s *Searcher) nextTrial() {
	for s.rankPos < len(s.rank) {
		if s.moveKnob(s.rank[s.rankPos], s.dir) {
			s.state = searchTrial
			s.stateEpochs = 0
			s.tries++
			s.clearMeasure()
			return
		}
		// Exhausted this direction: flip once, then move on.
		if s.dir == +1 {
			s.dir = -1
		} else {
			s.dir = +1
			s.rankPos++
		}
	}
	s.state = searchHold
	s.cur = s.bestCfg
}

// moveKnob steps one configuration index, reporting success. "Growing"
// the cache means a smaller CacheIdx (settings are largest-first).
func (s *Searcher) moveKnob(k knob, dir int) bool {
	switch k {
	case knobFreq:
		next := s.cur.FreqIdx + dir
		if next < 0 || next >= len(sim.FreqSettingsGHz) {
			return false
		}
		s.cur.FreqIdx = next
	case knobCache:
		next := s.cur.CacheIdx - dir
		if next < 0 || next >= len(sim.CacheSettings) {
			return false
		}
		s.cur.CacheIdx = next
	default:
		next := s.cur.ROBIdx + dir
		if next < 0 || next >= len(sim.ROBSettings) {
			return false
		}
		s.cur.ROBIdx = next
	}
	return true
}
