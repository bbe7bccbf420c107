package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/decoupled"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Fig9 and Fig10 reproduce the paper's fast-optimization results:
// minimizing E×D with the optimizer driving each tracking architecture,
// normalized to the Baseline (best static configuration from training).
//
// Fig9 is the 2-input system (cache, frequency); the paper's averages
// are E×D reductions of 16% (MIMO), 4% (Heuristic), -3% (Decoupled).
// Fig10 adds the ROB (3 inputs); paper: 25% (MIMO), 12% (Heuristic),
// with Decoupled impossible (3 inputs, 2 outputs).
// TableEDK covers the §VIII-F text: E (k=1) and E×D² (k=3).

// EnergyRow is one (application, architecture) normalized metric.
type EnergyRow struct {
	Workload string
	Arch     string
	// Normalized is E·D^(k-1) relative to Baseline (< 1 is better).
	Normalized float64
}

// EnergyResult is a full optimization experiment.
type EnergyResult struct {
	K          int
	ThreeInput bool
	Archs      []string
	Rows       []EnergyRow
	Baseline   sim.Config
}

// Fig9 runs the 2-input E×D minimization. epochs <= 0 selects 12000.
func Fig9(seed int64, epochs int) (*EnergyResult, error) {
	res, err := runEnergyExperiment(seed, epochs, 2, false)
	if err == nil {
		markFigureDone("fig9")
	}
	return res, err
}

// Fig10 runs the 3-input E×D minimization (no Decoupled).
func Fig10(seed int64, epochs int) (*EnergyResult, error) {
	res, err := runEnergyExperiment(seed, epochs, 2, true)
	if err == nil {
		markFigureDone("fig10")
	}
	return res, err
}

// TableEDK runs the §VIII-F metrics: k=1 (energy) or k=3 (E×D²), 2-input.
func TableEDK(seed int64, epochs, k int) (*EnergyResult, error) {
	res, err := runEnergyExperiment(seed, epochs, k, false)
	if err == nil {
		markFigureDone(fmt.Sprintf("table_ed%d", k))
	}
	return res, err
}

func runEnergyExperiment(seed int64, epochs, k int, threeInput bool) (*EnergyResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("experiments: metric exponent k must be >= 1, got %d", k)
	}
	if epochs <= 0 {
		epochs = 12000
	}
	warm := 400
	// Resolve the cached design artifacts once on this goroutine; each
	// job below clones/wraps its own controller around them.
	baseCfg, err := BaselineFor(k, threeInput, seed)
	if err != nil {
		return nil, err
	}
	mimo, _, err := DesignedMIMO(threeInput, seed)
	if err != nil {
		return nil, err
	}
	var dec core.ArchController
	archs := []string{"MIMO", "Heuristic"}
	if !threeInput {
		d, err := DesignedDecoupled(seed)
		if err != nil {
			return nil, err
		}
		dec = d
		archs = append(archs, "Decoupled")
	}
	// newCtrl builds a private controller instance for one job: every
	// arch's runtime state (optimizer trials, heuristic search position)
	// must be job-local for the plan to be order-independent.
	newCtrl := func(arch string) (core.ArchController, error) {
		switch arch {
		case "Baseline":
			return core.NewStaticController(baseCfg)
		case "MIMO":
			return core.NewOptimizer(bindMIMO(mimo.Clone()), core.OptimizerConfig{K: k})
		case "Heuristic":
			return NewHeuristicSearcher(k, threeInput)
		case "Decoupled":
			return core.NewOptimizer(dec.(*decoupled.Controller).Clone(), core.OptimizerConfig{K: k})
		}
		return nil, fmt.Errorf("unknown arch %q", arch)
	}
	apps := workloads.ProductionSet()
	// One job per workload: Baseline and every arch step in lockstep on
	// one bank of its plant, so a row computes its plant stream once.
	// edps[wi][0] is the workload's baseline and edps[wi][1+ai]
	// architecture ai.
	row := append([]string{"Baseline"}, archs...)
	edps := make([][]float64, len(apps))
	jobs := make([]runner.Job, len(apps))
	for wi, p := range apps {
		wi, p := wi, p
		jobs[wi] = runner.Job{
			Label: fmt.Sprintf("ed%d/%s", k, p.Name()),
			Run: func() error {
				ctrls := make([]core.ArchController, len(row))
				for ci, arch := range row {
					ctrl, err := newCtrl(arch)
					if err != nil {
						return err
					}
					ctrls[ci] = ctrl
				}
				edp, err := RunEnergy(ctrls, p, seed+7, epochs, warm, k)
				edps[wi] = edp
				return err
			},
		}
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &EnergyResult{K: k, ThreeInput: threeInput, Archs: archs, Baseline: baseCfg}
	for wi, p := range apps {
		baseEDP := edps[wi][0]
		for ai, arch := range archs {
			res.Rows = append(res.Rows, EnergyRow{
				Workload:   p.Name(),
				Arch:       arch,
				Normalized: edps[wi][1+ai] / baseEDP,
			})
		}
	}
	return res, nil
}

// Average returns the mean normalized metric for one architecture.
func (r *EnergyResult) Average(arch string) float64 {
	var xs []float64
	for _, row := range r.Rows {
		if row.Arch == arch {
			xs = append(xs, row.Normalized)
		}
	}
	return mean(xs)
}

// ReductionPct returns the average percentage reduction vs. Baseline
// (positive = better than baseline), the number the paper quotes.
func (r *EnergyResult) ReductionPct(arch string) float64 {
	return 100 * (1 - r.Average(arch))
}

// MetricName names E·D^(k-1).
func (r *EnergyResult) MetricName() string {
	switch r.K {
	case 1:
		return "E"
	case 2:
		return "E×D"
	case 3:
		return "E×D²"
	default:
		return fmt.Sprintf("E×D^%d", r.K-1)
	}
}

// WriteText renders the per-app bars and averages.
func (r *EnergyResult) WriteText(w io.Writer) {
	inputs := "2 inputs (cache, frequency)"
	if r.ThreeInput {
		inputs = "3 inputs (cache, frequency, ROB)"
	}
	fmt.Fprintf(w, "%s minimization, %s, normalized to Baseline %v\n", r.MetricName(), inputs, r.Baseline)
	byApp := map[string]map[string]float64{}
	var order []string
	for _, row := range r.Rows {
		if byApp[row.Workload] == nil {
			byApp[row.Workload] = map[string]float64{}
			order = append(order, row.Workload)
		}
		byApp[row.Workload][row.Arch] = row.Normalized
	}
	var rows [][]string
	for _, app := range order {
		cells := []string{app}
		for _, arch := range r.Archs {
			cells = append(cells, fmt.Sprintf("%.3f", byApp[app][arch]))
		}
		rows = append(rows, cells)
	}
	avg := []string{"AVG"}
	for _, arch := range r.Archs {
		avg = append(avg, fmt.Sprintf("%.3f (%.0f%% reduction)", r.Average(arch), r.ReductionPct(arch)))
	}
	rows = append(rows, avg)
	writeTable(w, append([]string{"app"}, r.Archs...), rows)
}
