// Package experiments reproduces every figure and table of the paper's
// evaluation (§VIII): each Fig* function regenerates the corresponding
// result — the same rows/series the paper reports — on the simulated
// processor substrate. See EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"

	"mimoctl/internal/core"
	"mimoctl/internal/decoupled"
	"mimoctl/internal/heuristic"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// DefaultSeed fixes all experiment randomness; experiments are
// deterministic given a seed.
const DefaultSeed = 2016 // ISCA 2016

// TrainingWorkloads returns the paper's training set as sim.Workloads.
func TrainingWorkloads() []sim.Workload {
	var out []sim.Workload
	for _, p := range workloads.TrainingSet() {
		out = append(out, p)
	}
	return out
}

// ValidationWorkloads returns the paper's uncertainty-validation pair.
func ValidationWorkloads() []sim.Workload {
	var out []sim.Workload
	for _, p := range workloads.ValidationSet() {
		out = append(out, p)
	}
	return out
}

// designCache memoizes expensive design artifacts across experiments
// with single-flight semantics: the first caller of a key runs the
// design, concurrent callers block on it, and every caller — parallel
// worker or not — receives the same pointer. Keys are per-function
// struct types, so families can never collide.
var designCache sync.Map // any (typed key) -> *cacheEntry

type cacheEntry struct {
	once sync.Once
	val  any
}

// designOnce runs f under single-flight for key and returns its memoized
// result.
func designOnce[T any](key any, f func() T) T {
	e, _ := designCache.LoadOrStore(key, &cacheEntry{})
	entry := e.(*cacheEntry)
	entry.once.Do(func() { entry.val = f() })
	return entry.val.(T)
}

// DesignedMIMO returns the standard MIMO controller (cached per
// (threeInput, seed), single-flight). All callers of one key share one
// pointer: the controller has runtime state, so parallel experiment jobs
// must Clone it, and any user must Reset before use; experiments do
// both.
func DesignedMIMO(threeInput bool, seed int64) (*core.MIMOController, *core.DesignReport, error) {
	type key struct {
		three bool
		seed  int64
	}
	type val struct {
		ctrl *core.MIMOController
		rep  *core.DesignReport
		err  error
	}
	v := designOnce(key{threeInput, seed}, func() val {
		ctrl, rep, err := core.DesignMIMO(core.DesignSpec{
			ThreeInput: threeInput,
			Training:   TrainingWorkloads(),
			Validation: ValidationWorkloads(),
			Seed:       seed,
		})
		return val{ctrl, rep, err}
	})
	return v.ctrl, v.rep, v.err
}

// DesignedDecoupled returns the decoupled SISO pair (cached per seed,
// single-flight; same sharing rules as DesignedMIMO).
func DesignedDecoupled(seed int64) (*decoupled.Controller, error) {
	type key struct{ seed int64 }
	type val struct {
		ctrl *decoupled.Controller
		err  error
	}
	v := designOnce(key{seed}, func() val {
		ctrl, err := decoupled.Design(decoupled.DesignSpec{Training: TrainingWorkloads(), Seed: seed})
		return val{ctrl, err}
	})
	return v.ctrl, v.err
}

// BaselineFor returns the best static configuration for metric
// E·D^(k-1) on the training set. The profile behind it does not depend
// on k and is cached per (threeInput, seed), single-flight, so every k
// of one knob set shares one sweep; k < 1 is rejected before any.
func BaselineFor(k int, threeInput bool, seed int64) (sim.Config, error) {
	if k < 1 {
		return sim.Config{}, fmt.Errorf("experiments: metric exponent k must be >= 1, got %d", k)
	}
	type key struct {
		three bool
		seed  int64
	}
	type val struct {
		prof *core.StaticProfile
		err  error
	}
	v := designOnce(key{threeInput, seed}, func() val {
		prof, err := core.ProfileStatic(TrainingWorkloads(), threeInput, 300, seed)
		return val{prof, err}
	})
	if v.err != nil {
		return sim.Config{}, v.err
	}
	cfg, _, err := v.prof.Best(k)
	return cfg, err
}

// NewHeuristicTracker builds the tracking-mode heuristic.
func NewHeuristicTracker(threeInput bool) *heuristic.Tracker {
	return heuristic.NewTracker(heuristic.Options{ThreeInput: threeInput})
}

// NewHeuristicSearcher builds the optimization-mode heuristic.
func NewHeuristicSearcher(k int, threeInput bool) (*heuristic.Searcher, error) {
	return heuristic.NewSearcher(heuristic.SearcherConfig{K: k, Options: heuristic.Options{ThreeInput: threeInput}})
}

// TrackStats summarizes a closed-loop tracking run.
type TrackStats struct {
	Workload string
	Arch     string
	// MeanIPS / MeanPower over the measured window.
	MeanIPS, MeanPower float64
	// IPSErrPct / PowerErrPct are the paper's "average error" metrics:
	// mean |y - ref| / ref in percent over the measured window.
	IPSErrPct, PowerErrPct float64
	// EnergyJ, Instructions, Seconds over the whole run.
	EnergyJ      float64
	Instructions float64
	Seconds      float64
}

// RunTracking drives a controller against a workload for `epochs`
// control epochs, measuring after `skip` warm-up epochs against the
// controller's (possibly time-varying) targets.
func RunTracking(ctrl core.ArchController, w sim.Workload, seed int64, epochs, skip int) (TrackStats, error) {
	proc, err := newProcessor(w, seed)
	if err != nil {
		return TrackStats{}, err
	}
	ctrl.Reset()
	rec := attachFlightRec(ctrl, trackingMeta(ctrl, w, seed, epochs))
	defer finishFlightRec(rec, ctrl, "track_"+w.Name()+"_"+ctrl.Name())
	tel := proc.Step()
	var sumIPS, sumP, sumIErr, sumPErr float64
	n := 0
	for k := 0; k < epochs; k++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return TrackStats{}, err
		}
		tel = proc.Step()
		if k >= skip {
			ipsRef, pRef := ctrl.Targets()
			sumIPS += tel.TrueIPS
			sumP += tel.TruePowerW
			if ipsRef > 0 {
				sumIErr += math.Abs(tel.TrueIPS-ipsRef) / ipsRef
			}
			if pRef > 0 {
				sumPErr += math.Abs(tel.TruePowerW-pRef) / pRef
			}
			n++
		}
	}
	countEpochs(epochs)
	e, instr, secs := proc.Totals()
	if n == 0 {
		n = 1
	}
	return TrackStats{
		Workload: w.Name(), Arch: ctrl.Name(),
		MeanIPS: sumIPS / float64(n), MeanPower: sumP / float64(n),
		IPSErrPct: 100 * sumIErr / float64(n), PowerErrPct: 100 * sumPErr / float64(n),
		EnergyJ: e, Instructions: instr, Seconds: secs,
	}, nil
}

// RunEnergy drives a controller and returns the E·D^(k-1) per
// instruction achieved over the run (after `warm` settling epochs).
func RunEnergy(ctrl core.ArchController, w sim.Workload, seed int64, epochs, warm, k int) (float64, error) {
	proc, err := newProcessor(w, seed)
	if err != nil {
		return 0, err
	}
	ctrl.Reset()
	rec := attachFlightRec(ctrl, trackingMeta(ctrl, w, seed, warm+epochs))
	defer finishFlightRec(rec, ctrl, "energy_"+w.Name()+"_"+ctrl.Name())
	tel := proc.Step()
	for i := 0; i < warm; i++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return 0, err
		}
		tel = proc.Step()
	}
	proc.ResetTotals()
	for i := 0; i < epochs; i++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return 0, err
		}
		tel = proc.Step()
	}
	countEpochs(warm + epochs)
	e, instr, secs := proc.Totals()
	return sim.EnergyDelayProduct(e, instr, secs, k), nil
}

// SteadyStateEpoch returns the first epoch after which the integer
// series never again differs from its final value by more than slack
// steps. Returns len(series) if it never settles (the paper's "missing
// datapoint" case, Fig. 6).
func SteadyStateEpoch(series []int, slack int) int {
	if len(series) == 0 {
		return 0
	}
	final := series[len(series)-1]
	last := 0
	for i, v := range series {
		if abs(v-final) > slack {
			last = i + 1
		}
	}
	if last >= len(series) {
		return len(series)
	}
	return last
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// mean returns the arithmetic mean of the finite entries of xs. NaN and
// ±Inf samples are skipped (one corrupt run must not turn a whole
// average into NaN); the empty / all-corrupt sentinel is 0. Clean data
// is unaffected.
func mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// writeTable prints an aligned text table.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(header)
	for _, r := range rows {
		printRow(r)
	}
}

// SteadyStateEpochEMA is a noise-robust variant of SteadyStateEpoch: it
// smooths the integer setting series with an exponential moving average
// (alpha) and returns the last epoch at which the smoothed value is more
// than tol settings away from its final smoothed value. Returns
// len(series) if the series never settles. The result is always in
// [0, len(series)]: a non-finite or non-positive alpha degrades to 1
// (no smoothing) and a NaN tol to 0, so corrupt parameters yield a
// defined answer instead of a NaN-propagating comparison chain.
func SteadyStateEpochEMA(series []int, alpha, tol float64) int {
	if len(series) == 0 {
		return 0
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 {
		alpha = 1
	}
	if math.IsNaN(tol) {
		tol = 0
	}
	ema := make([]float64, len(series))
	ema[0] = float64(series[0])
	for i := 1; i < len(series); i++ {
		ema[i] = ema[i-1] + alpha*(float64(series[i])-ema[i-1])
	}
	final := ema[len(ema)-1]
	last := 0
	for i, v := range ema {
		if math.Abs(v-final) > tol {
			last = i + 1
		}
	}
	if last >= len(series) {
		return len(series)
	}
	return last
}
