package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Fig8 reproduces Figure 8: time to reach steady state under the
// paper's conservative uncertainty guardbands (50% IPS / 30% power)
// versus an aggressive design with lower guardbands (30% / 20%). A
// smaller guardband certifies a more aggressive (lower input weight)
// controller, which settles faster — showing the conservative design
// trades speed for certified robustness.

// Fig8Point is one application under one design.
type Fig8Point struct {
	Workload                            string
	EpochsSteadyFreq, EpochsSteadyCache int
}

// Fig8Result holds the per-app scatter for both designs.
type Fig8Result struct {
	High, Low []Fig8Point
}

// Fig8 runs the comparison over the responsive production applications.
// The plan runs the two designs as jobs, then one job per (design,
// application) pair; each run job clones its design so jobs share no
// state.
func Fig8(seed int64, epochs int) (*Fig8Result, error) {
	if epochs <= 0 {
		epochs = 1200
	}
	// The conservative design must tolerate the larger 50%/30%
	// guardbands, which requires more cautious (heavier) input weights;
	// betting on the smaller 30%/20% guardbands permits the nominal
	// tuning, which settles faster (§VIII-C).
	var high, low *core.MIMOController
	design := []runner.Job{
		{Label: "fig8/design/high", Run: func() error {
			c, _, err := designMIMO(core.DesignSpec{
				Seed:        seed,
				FreqWeight:  core.DefaultFreqWeight * 4,
				CacheWeight: core.DefaultCacheWeight * 4,
			})
			if err != nil {
				return fmt.Errorf("high-uncertainty design: %w", err)
			}
			high = c
			return nil
		}},
		{Label: "fig8/design/low", Run: func() error {
			c, _, err := designMIMO(core.DesignSpec{
				Seed:           seed,
				IPSGuardband:   0.30,
				PowerGuardband: 0.20,
			})
			if err != nil {
				return fmt.Errorf("low-uncertainty design: %w", err)
			}
			low = c
			return nil
		}},
	}
	if err := runPlan(design); err != nil {
		return nil, err
	}
	apps := workloads.ResponsiveSet()
	highPts := make([]Fig8Point, len(apps))
	lowPts := make([]Fig8Point, len(apps))
	jobs := make([]runner.Job, 0, 2*len(apps))
	for i, p := range apps {
		i, p := i, p
		jobs = append(jobs, runner.Job{Label: "fig8/high/" + p.Name(), Run: func() error {
			pt, err := fig8Run(bindMIMO(high.Clone()), p, seed, epochs)
			highPts[i] = pt
			return err
		}})
		jobs = append(jobs, runner.Job{Label: "fig8/low/" + p.Name(), Run: func() error {
			pt, err := fig8Run(bindMIMO(low.Clone()), p, seed, epochs)
			lowPts[i] = pt
			return err
		}})
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &Fig8Result{High: highPts, Low: lowPts}
	markFigureDone("fig8")
	return res, nil
}

func fig8Run(ctrl *core.MIMOController, w sim.Workload, seed int64, epochs int) (Fig8Point, error) {
	proc, err := newProcessor(w, seed+1234)
	if err != nil {
		return Fig8Point{}, err
	}
	ctrl.Reset()
	ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	tel := proc.Step()
	freqSeries := make([]int, 0, epochs)
	cacheSeries := make([]int, 0, epochs)
	for k := 0; k < epochs; k++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return Fig8Point{}, err
		}
		tel = proc.Step()
		freqSeries = append(freqSeries, cfg.FreqIdx)
		cacheSeries = append(cacheSeries, cfg.CacheIdx)
	}
	countEpochs(epochs)
	return Fig8Point{
		Workload:          w.Name(),
		EpochsSteadyFreq:  SteadyStateEpoch(freqSeries, 1),
		EpochsSteadyCache: SteadyStateEpoch(cacheSeries, 0),
	}, nil
}

// Averages returns the mean steady-state epochs (freq, cache) for both
// designs.
func (r *Fig8Result) Averages() (highFreq, highCache, lowFreq, lowCache float64) {
	var hf, hc, lf, lc []float64
	for _, p := range r.High {
		hf = append(hf, float64(p.EpochsSteadyFreq))
		hc = append(hc, float64(p.EpochsSteadyCache))
	}
	for _, p := range r.Low {
		lf = append(lf, float64(p.EpochsSteadyFreq))
		lc = append(lc, float64(p.EpochsSteadyCache))
	}
	return mean(hf), mean(hc), mean(lf), mean(lc)
}

// WriteText renders the scatter plus averages.
func (r *Fig8Result) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: epochs to steady state, High (50%/30%) vs Low (30%/20%) uncertainty guardbands")
	rows := make([][]string, 0, len(r.High))
	for i := range r.High {
		rows = append(rows, []string{
			r.High[i].Workload,
			fmt.Sprintf("%d", r.High[i].EpochsSteadyFreq),
			fmt.Sprintf("%d", r.High[i].EpochsSteadyCache),
			fmt.Sprintf("%d", r.Low[i].EpochsSteadyFreq),
			fmt.Sprintf("%d", r.Low[i].EpochsSteadyCache),
		})
	}
	hf, hc, lf, lc := r.Averages()
	rows = append(rows, []string{"AVG",
		fmt.Sprintf("%.0f", hf), fmt.Sprintf("%.0f", hc),
		fmt.Sprintf("%.0f", lf), fmt.Sprintf("%.0f", lc)})
	writeTable(w, []string{"app", "high freq", "high cache", "low freq", "low cache"}, rows)
}
