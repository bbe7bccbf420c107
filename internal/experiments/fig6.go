package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Fig6 reproduces Figure 6: the impact of input and output weight
// choices (Table V) on the epochs needed to reach steady state (a) and
// on the output tracking errors (b), running namd toward 2.5 BIPS and
// 2 W.
//
// The paper's Table V sets are given in its own input units; they are
// mapped here through a fixed x250 input-weight scale that converts the
// paper's units to this plant's normalized knob units, preserving every
// ratio within each set.

// Fig6WeightSets returns the Table V weight choices as
// [cache, freq, IPS, power] in this library's units.
func Fig6WeightSets() []Fig6WeightSet {
	const inScale = 250
	return []Fig6WeightSet{
		{Label: "Equal", Cache: 1 * inScale, Freq: 1 * inScale, IPS: 1, Power: 1},
		{Label: "Inputs", Cache: 0.01 * inScale, Freq: 0.01 * inScale, IPS: 1, Power: 1},
		{Label: "Power", Cache: 0.01 * inScale, Freq: 0.01 * inScale, IPS: 1, Power: 100},
		{Label: "Size", Cache: 0.001 * inScale, Freq: 0.01 * inScale, IPS: 1, Power: 100},
	}
}

// Fig6WeightSet is one Table V row.
type Fig6WeightSet struct {
	Label                   string
	Cache, Freq, IPS, Power float64
}

// Fig6Point is the outcome for one weight set: the two panels of the
// figure plus a convergence flag (the paper's Equal point is missing
// from panel (a) because it never converges).
type Fig6Point struct {
	Set Fig6WeightSet
	// Converged reports whether both knobs reached steady state within
	// the run.
	Converged bool
	// EpochsSteadyFreq / EpochsSteadyCache: Figure 6(a).
	EpochsSteadyFreq, EpochsSteadyCache int
	// IPSErrPct / PowerErrPct: Figure 6(b).
	IPSErrPct, PowerErrPct float64
}

// Fig6Result holds all four points.
type Fig6Result struct {
	Epochs int
	Points []Fig6Point
}

// Fig6 runs the experiment. epochs <= 0 selects 2500 as in the figure's
// axis range. The plan is one job per weight set (each designs and runs
// its own controller); points land in Table V order regardless of
// worker count.
func Fig6(seed int64, epochs int) (*Fig6Result, error) {
	if epochs <= 0 {
		epochs = 2500
	}
	namd, err := workloads.ByName("namd")
	if err != nil {
		return nil, err
	}
	sets := Fig6WeightSets()
	points := make([]Fig6Point, len(sets))
	jobs := make([]runner.Job, len(sets))
	for i, set := range sets {
		i, set := i, set
		jobs[i] = runner.Job{Label: "fig6/" + set.Label, Run: func() error {
			p, err := fig6Point(namd, set, seed, epochs)
			if err != nil {
				return err
			}
			points[i] = p
			return nil
		}}
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &Fig6Result{Epochs: epochs, Points: points}
	markFigureDone("fig6")
	return res, nil
}

// fig6Point designs one weight set's controller and measures its
// convergence and tracking on namd — one independent job.
func fig6Point(namd sim.Workload, set Fig6WeightSet, seed int64, epochs int) (Fig6Point, error) {
	point := Fig6Point{Set: set}
	ctrl, _, err := core.DesignMIMO(core.DesignSpec{
		Training:         TrainingWorkloads(),
		Seed:             seed,
		IPSWeight:        set.IPS,
		PowerWeight:      set.Power,
		FreqWeight:       set.Freq,
		CacheWeight:      set.Cache,
		MaxRSAIterations: 1, // evaluate the weight set as given
	})
	if err != nil {
		// A weight set that cannot even be stabilized nominally is
		// reported as non-convergent, like the paper's Equal point.
		point.Converged = false
		point.EpochsSteadyFreq = epochs
		point.EpochsSteadyCache = epochs
		return point, nil
	}
	ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	proc, err := sim.NewProcessor(namd, sim.DefaultProcessorOptions(), seed+77)
	if err != nil {
		return Fig6Point{}, err
	}
	tel := proc.Step()
	freqSeries := make([]int, 0, epochs)
	cacheSeries := make([]int, 0, epochs)
	var sumIErr, sumPErr float64
	n := 0
	for k := 0; k < epochs; k++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return Fig6Point{}, err
		}
		tel = proc.Step()
		freqSeries = append(freqSeries, cfg.FreqIdx)
		cacheSeries = append(cacheSeries, cfg.CacheIdx)
		if k >= epochs*4/5 {
			sumIErr += absf(tel.TrueIPS-core.DefaultIPSTarget) / core.DefaultIPSTarget
			sumPErr += absf(tel.TruePowerW-core.DefaultPowerTarget) / core.DefaultPowerTarget
			n++
		}
	}
	countEpochs(epochs)
	point.EpochsSteadyFreq = SteadyStateEpochEMA(freqSeries, 0.05, 1.0)
	point.EpochsSteadyCache = SteadyStateEpochEMA(cacheSeries, 0.05, 0.6)
	point.IPSErrPct = 100 * sumIErr / float64(n)
	point.PowerErrPct = 100 * sumPErr / float64(n)
	// Converged means the knobs settled AND the heavily weighted
	// output actually reached its target: the paper's Equal point is
	// "missing" because the outputs never move to the references.
	point.Converged = point.EpochsSteadyFreq < epochs &&
		point.EpochsSteadyCache < epochs && point.PowerErrPct <= 10
	return point, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WriteText renders the result like the figure's two panels.
func (r *Fig6Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: weight-choice sensitivity (namd, %d epochs, targets %.1f BIPS / %.1f W)\n",
		r.Epochs, core.DefaultIPSTarget, core.DefaultPowerTarget)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		conv := "yes"
		steadyF := fmt.Sprintf("%d", p.EpochsSteadyFreq)
		steadyC := fmt.Sprintf("%d", p.EpochsSteadyCache)
		if !p.Converged {
			conv = "NO (datapoint missing, as in paper)"
			steadyF, steadyC = "-", "-"
		}
		rows = append(rows, []string{
			p.Set.Label, steadyF, steadyC,
			fmt.Sprintf("%.1f", p.IPSErrPct), fmt.Sprintf("%.1f", p.PowerErrPct), conv,
		})
	}
	writeTable(w, []string{"weights", "steady(freq)", "steady(cache)", "IPS err %", "P err %", "converged"}, rows)
}
