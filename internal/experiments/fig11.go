package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/workloads"
)

// Fig11 reproduces Figure 11: tracking multiple references
// (2.5 BIPS, 2 W) with the MIMO, Heuristic, and Decoupled
// architectures, reporting the average IPS and power errors per
// application, split into responsive (a) and non-responsive (b) sets.
// The paper's headline: average IPS error on responsive applications is
// 7% (MIMO), 13% (Heuristic), 24% (Decoupled), with power tracked well
// by all.

// Fig11Row is one (application, architecture) measurement.
type Fig11Row struct {
	Workload   string
	Arch       string
	Responsive bool
	IPSErrPct  float64
	PowerPct   float64
}

// Fig11Result holds every row plus per-architecture averages.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Archs lists the architectures compared, in the paper's order.
var Fig11Archs = []string{"MIMO", "Heuristic", "Decoupled"}

// Fig11 runs the tracking comparison. epochs <= 0 selects 6000. The
// plan is one job per (application, architecture); each job builds a
// private controller (a clone of the cached design, or a fresh
// heuristic).
func Fig11(seed int64, epochs int) (*Fig11Result, error) {
	if epochs <= 0 {
		epochs = 6000
	}
	skip := epochs / 6
	mimo, _, err := DesignedMIMO(false, seed)
	if err != nil {
		return nil, err
	}
	dec, err := DesignedDecoupled(seed)
	if err != nil {
		return nil, err
	}
	newCtrl := []func() core.ArchController{
		func() core.ArchController { return bindMIMO(mimo.Clone()) },
		func() core.ArchController { return NewHeuristicTracker(false) },
		func() core.ArchController { return dec.Clone() },
	}
	apps := workloads.ProductionSet()
	rows := make([]Fig11Row, len(apps)*len(newCtrl))
	jobs := make([]runner.Job, 0, len(rows))
	for wi, p := range apps {
		for ci, mk := range newCtrl {
			wi, ci, p, mk := wi, ci, p, mk
			jobs = append(jobs, runner.Job{
				Label: fmt.Sprintf("fig11/%s/%s", p.Name(), Fig11Archs[ci]),
				Run: func() error {
					ctrl := mk()
					ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
					st, err := RunTracking(ctrl, p, seed+101, epochs, skip)
					if err != nil {
						return fmt.Errorf("%s on %s: %w", ctrl.Name(), p.Name(), err)
					}
					rows[wi*len(newCtrl)+ci] = Fig11Row{
						Workload:   p.Name(),
						Arch:       ctrl.Name(),
						Responsive: !workloads.NonResponsive(p.Name()),
						IPSErrPct:  st.IPSErrPct,
						PowerPct:   st.PowerErrPct,
					}
					return nil
				},
			})
		}
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &Fig11Result{Rows: rows}
	markFigureDone("fig11")
	return res, nil
}

// Average returns the mean (IPS error, power error) for one
// architecture over the responsive or non-responsive subset.
func (r *Fig11Result) Average(arch string, responsive bool) (ipsErrPct, powerErrPct float64) {
	var is, ps []float64
	for _, row := range r.Rows {
		if row.Arch == arch && row.Responsive == responsive {
			is = append(is, row.IPSErrPct)
			ps = append(ps, row.PowerPct)
		}
	}
	return mean(is), mean(ps)
}

// WriteText renders both panels.
func (r *Fig11Result) WriteText(w io.Writer) {
	for _, responsive := range []bool{true, false} {
		label := "(a) responsive applications"
		if !responsive {
			label = "(b) non-responsive applications"
		}
		fmt.Fprintf(w, "Figure 11%s: tracking 2.5 BIPS / 2 W\n", label)
		var rows [][]string
		for _, row := range r.Rows {
			if row.Responsive != responsive {
				continue
			}
			rows = append(rows, []string{
				row.Workload, row.Arch,
				fmt.Sprintf("%.1f", row.IPSErrPct),
				fmt.Sprintf("%.1f", row.PowerPct),
			})
		}
		for _, arch := range Fig11Archs {
			i, p := r.Average(arch, responsive)
			rows = append(rows, []string{"AVG", arch, fmt.Sprintf("%.1f", i), fmt.Sprintf("%.1f", p)})
		}
		writeTable(w, []string{"app", "arch", "IPS err %", "P err %"}, rows)
		fmt.Fprintln(w)
	}
}
