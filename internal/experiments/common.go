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
	"mimoctl/internal/flightrec"
	"mimoctl/internal/heuristic"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
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

// identKey keys the identification family of the design cache.
type identKey struct {
	three bool
	dim   int
	seed  int64
}

// identifiedMIMO returns the identification of the paper's training set
// at the default record length for one knob set, model dimension (0 =
// core.DefaultModelDimension) and seed, cached and single-flight. Every
// design at that key shares the one model read-only.
func identifiedMIMO(threeInput bool, seed int64, dim int) (*core.Identification, error) {
	return identifiedFrom(&trainingRecord{three: threeInput, seed: seed}, dim)
}

// identifiedFrom is identifiedMIMO at rec's knob set and seed: a cold
// key is fit on rec, which collects itself on first use.
func identifiedFrom(rec *trainingRecord, dim int) (*core.Identification, error) {
	if dim == 0 {
		dim = core.DefaultModelDimension
	}
	type val struct {
		id  *core.Identification
		err error
	}
	v := designOnce(identKey{rec.three, dim, rec.seed}, func() val {
		data, err := rec.get()
		if err != nil {
			return val{nil, fmt.Errorf("core: identification: %w", err)}
		}
		id, err := core.IdentifyFrom(data, dim)
		return val{id, err}
	})
	return v.id, v.err
}

// trainingRecord is the identification record of the paper's training
// set at the default record length for one knob set and seed, collected
// once on first use. Identifications that share one (Fig7's cold
// dimensions) collect it once between them; it is never cached beyond
// its holder, since a record is ~0.4 MB.
type trainingRecord struct {
	three bool
	seed  int64

	once sync.Once
	data *sysid.Data
	err  error
}

// collectTraining collects a training record; tests count the
// collections through it.
var collectTraining = core.CollectIdentificationData

// get collects the record on its first call and returns it.
func (r *trainingRecord) get() (*sysid.Data, error) {
	r.once.Do(func() {
		r.data, r.err = collectTraining(TrainingWorkloads(), r.three, core.DefaultEpochsPerApp, r.seed)
	})
	return r.data, r.err
}

// designMIMO is core.DesignMIMO on the memoized identification of spec's
// knob set, model dimension and seed. spec's Training and EpochsPerApp
// are not read: the identification always uses the paper's training set
// at the default record length.
func designMIMO(spec core.DesignSpec) (*core.MIMOController, *core.DesignReport, error) {
	id, err := identifiedMIMO(spec.ThreeInput, spec.Seed, spec.ModelDimension)
	if err != nil {
		return nil, nil, err
	}
	return core.DesignFrom(spec, id)
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
		ctrl, rep, err := designMIMO(core.DesignSpec{
			ThreeInput: threeInput,
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

// RunTracking drives each controller of ctrls against its own plant of
// w for `epochs` control epochs and returns ctrls[i]'s stats at index
// i, measured after `skip` warm-up epochs against the controller's
// (possibly time-varying) targets. The plants are the members of one
// lockstep bank of (w, seed): each controller runs exactly as it would
// on a processor of its own, and the plant stream is computed once for
// the row.
func RunTracking(ctrls []core.ArchController, w sim.Workload, seed int64, epochs, skip int) ([]TrackStats, error) {
	bank, err := newLockstep(w, seed, len(ctrls))
	if err != nil {
		return nil, err
	}
	drive, finish := startRow(ctrls, "track", w, seed, epochs)
	defer finish()
	type sums struct{ ips, p, iErr, pErr float64 }
	acc := make([]sums, len(ctrls))
	n := 0
	tels := bank.Step()
	for k := 0; k < epochs; k++ {
		if err := stepRow(bank, ctrls, drive, tels, w); err != nil {
			return nil, err
		}
		tels = bank.Step()
		if k < skip {
			continue
		}
		n++
		for i, ctrl := range ctrls {
			tel, a := &tels[i], &acc[i]
			ipsRef, pRef := ctrl.Targets()
			a.ips += tel.TrueIPS
			a.p += tel.TruePowerW
			if ipsRef > 0 {
				a.iErr += math.Abs(tel.TrueIPS-ipsRef) / ipsRef
			}
			if pRef > 0 {
				a.pErr += math.Abs(tel.TruePowerW-pRef) / pRef
			}
		}
	}
	countEpochs(epochs * len(ctrls))
	nf := float64(max(n, 1))
	out := make([]TrackStats, len(ctrls))
	for i, ctrl := range ctrls {
		a, t := acc[i], bank.Totals(i)
		out[i] = TrackStats{
			Workload: w.Name(), Arch: ctrl.Name(),
			MeanIPS: a.ips / nf, MeanPower: a.p / nf,
			IPSErrPct: 100 * a.iErr / nf, PowerErrPct: 100 * a.pErr / nf,
			EnergyJ: t.EnergyJ, Instructions: t.Instructions, Seconds: t.Seconds,
		}
	}
	return out, nil
}

// RunEnergy drives each controller of ctrls against its own plant of w,
// the members of one lockstep bank of (w, seed) as in RunTracking, and
// returns the E·D^(k-1) per instruction ctrls[i] achieved over the run
// (after `warm` settling epochs) at index i.
func RunEnergy(ctrls []core.ArchController, w sim.Workload, seed int64, epochs, warm, k int) ([]float64, error) {
	bank, err := newLockstep(w, seed, len(ctrls))
	if err != nil {
		return nil, err
	}
	drive, finish := startRow(ctrls, "energy", w, seed, warm+epochs)
	defer finish()
	tels := bank.Step()
	for i := 0; i < warm; i++ {
		if err := stepRow(bank, ctrls, drive, tels, w); err != nil {
			return nil, err
		}
		tels = bank.Step()
	}
	bank.ResetTotals()
	for i := 0; i < epochs; i++ {
		if err := stepRow(bank, ctrls, drive, tels, w); err != nil {
			return nil, err
		}
		tels = bank.Step()
	}
	countEpochs((warm + epochs) * len(ctrls))
	out := make([]float64, len(ctrls))
	for i := range ctrls {
		t := bank.Totals(i)
		out[i] = sim.EnergyDelayProduct(t.EnergyJ, t.Instructions, t.Seconds, k)
	}
	return out, nil
}

// startRow resets each controller of a row and attaches its flight
// recorder (kind labels the dumps). It returns the recorders stepRow
// writes, one per member (nil: none), and a function that finishes the
// recordings in row order.
func startRow(ctrls []core.ArchController, kind string, w sim.Workload, seed int64, epochs int) ([]*flightrec.Recorder, func()) {
	recs := make([]*flightrec.Recorder, len(ctrls))
	drive := make([]*flightrec.Recorder, len(ctrls))
	for i, ctrl := range ctrls {
		ctrl.Reset()
		ips, pow := ctrl.Targets()
		recs[i], drive[i] = attachFlightRec(ctrl, runMeta(ctrl.Name(), w.Name(), "", seed, epochs, ips, pow))
	}
	return drive, func() {
		for i, ctrl := range ctrls {
			finishFlightRec(recs[i], ctrl, kind+"_"+w.Name()+"_"+ctrl.Name())
		}
	}
}

// stepRow steps each controller of a row on its member's telemetry,
// records the epoch to the member's recorder in drive, and applies its
// decision to that member.
func stepRow(bank *sim.Lockstep, ctrls []core.ArchController, drive []*flightrec.Recorder, tels []sim.Telemetry, w sim.Workload) error {
	for i, ctrl := range ctrls {
		cfg := ctrl.Step(tels[i])
		record(drive[i], ctrl, cfg, &tels[i])
		if err := bank.Apply(i, cfg); err != nil {
			return fmt.Errorf("%s on %s: %w", ctrl.Name(), w.Name(), err)
		}
	}
	return nil
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
