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
// plan is one job per application: its architectures, each a private
// controller (a clone of the cached design, or a fresh heuristic), step
// in lockstep on one bank of the application's plant.
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
	newCtrls := func() []core.ArchController {
		ctrls := []core.ArchController{bindMIMO(mimo.Clone()), NewHeuristicTracker(false), dec.Clone()}
		for _, ctrl := range ctrls {
			ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
		}
		return ctrls
	}
	apps := workloads.ProductionSet()
	rows := make([]Fig11Row, len(apps)*len(Fig11Archs))
	jobs := make([]runner.Job, len(apps))
	for wi, p := range apps {
		wi, p := wi, p
		jobs[wi] = runner.Job{
			Label: "fig11/" + p.Name(),
			Run: func() error {
				sts, err := RunTracking(newCtrls(), p, seed+101, epochs, skip)
				if err != nil {
					return err
				}
				for ci, st := range sts {
					rows[wi*len(Fig11Archs)+ci] = Fig11Row{
						Workload:   p.Name(),
						Arch:       st.Arch,
						Responsive: !workloads.NonResponsive(p.Name()),
						IPSErrPct:  st.IPSErrPct,
						PowerPct:   st.PowerErrPct,
					}
				}
				return nil
			},
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
