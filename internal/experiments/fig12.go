package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Fig12 reproduces Figure 12: time-varying tracking. A high-level agent
// (the QoE/battery scheduler of §VII-B2) lowers the IPS and power
// references every 2000 epochs as a 1 J battery drains; the figure
// shows the IPS each architecture attains versus the reference, for
// astar (a) and milc (b), as a percentage of the initial value.

// Fig12Trace is one architecture's sampled trajectory on one workload.
type Fig12Trace struct {
	Workload string
	Arch     string
	// Epochs[i], RefPct[i], IPSPct[i]: sample points; percentages are
	// relative to the initial reference, like the paper's y-axis.
	Epochs []int
	RefPct []float64
	IPSPct []float64
	// MeanAbsErrPct is the average |IPS - ref|/ref over the run.
	MeanAbsErrPct float64
}

// Fig12Result holds the traces for each workload and architecture.
type Fig12Result struct {
	Traces []Fig12Trace
}

// Fig12Workloads are the paper's two examples.
var Fig12Workloads = []string{"astar", "milc"}

// Fig12 runs the experiment. epochs <= 0 selects 10000 (the figure's
// x-range); sampleEvery <= 0 selects 250.
func Fig12(seed int64, epochs, sampleEvery int) (*Fig12Result, error) {
	if epochs <= 0 {
		epochs = 10000
	}
	if sampleEvery <= 0 {
		sampleEvery = 250
	}
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
	// One job per (workload, architecture); each run owns its controller
	// clone and its battery scheduler, so the reference schedule of one
	// trace can never leak into another.
	traces := make([]Fig12Trace, len(Fig12Workloads)*len(newCtrl))
	jobs := make([]runner.Job, 0, len(traces))
	for ni, name := range Fig12Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for ci, mk := range newCtrl {
			ni, ci, name, w, mk := ni, ci, name, w, mk
			jobs = append(jobs, runner.Job{
				Label: fmt.Sprintf("fig12/%s/%d", name, ci),
				Run: func() error {
					trace, err := fig12Run(mk(), w, seed, epochs, sampleEvery)
					if err != nil {
						return fmt.Errorf("on %s: %w", name, err)
					}
					traces[ni*len(newCtrl)+ci] = trace
					return nil
				},
			})
		}
	}
	if err := runPlan(jobs); err != nil {
		return nil, err
	}
	res := &Fig12Result{Traces: traces}
	markFigureDone("fig12")
	return res, nil
}

func fig12Run(ctrl core.ArchController, w sim.Workload, seed int64, epochs, sampleEvery int) (Fig12Trace, error) {
	proc, err := newProcessor(w, seed+555)
	if err != nil {
		return Fig12Trace{}, err
	}
	sched, err := core.NewBatteryScheduler(core.BatteryScheduleConfig{
		InitialIPS:   core.DefaultIPSTarget,
		InitialPower: core.DefaultPowerTarget,
		TotalEnergyJ: 1.0,
	})
	if err != nil {
		return Fig12Trace{}, err
	}
	ctrl.Reset()
	ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
	trace := Fig12Trace{Workload: w.Name(), Arch: ctrl.Name()}
	tel := proc.Step()
	var sumErr float64
	n := 0
	for k := 0; k < epochs; k++ {
		ipsRef, pRef, changed := sched.Step(tel)
		if changed {
			ctrl.SetTargets(ipsRef, pRef)
		}
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			return Fig12Trace{}, err
		}
		tel = proc.Step()
		if ipsRef > 0 {
			sumErr += absf(tel.TrueIPS-ipsRef) / ipsRef
			n++
		}
		if k%sampleEvery == 0 {
			trace.Epochs = append(trace.Epochs, k)
			trace.RefPct = append(trace.RefPct, 100*ipsRef/core.DefaultIPSTarget)
			trace.IPSPct = append(trace.IPSPct, 100*tel.TrueIPS/core.DefaultIPSTarget)
		}
	}
	countEpochs(epochs)
	if n > 0 {
		trace.MeanAbsErrPct = 100 * sumErr / float64(n)
	}
	return trace, nil
}

// WriteText renders the sampled series and summary errors.
func (r *Fig12Result) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: time-varying tracking (battery/QoE reference schedule, 1 J, steps every 2000 epochs)")
	for _, name := range Fig12Workloads {
		fmt.Fprintf(w, "\n%s: mean |IPS-ref|/ref\n", name)
		var rows [][]string
		for _, t := range r.Traces {
			if t.Workload != name {
				continue
			}
			rows = append(rows, []string{t.Arch, fmt.Sprintf("%.1f%%", t.MeanAbsErrPct)})
		}
		writeTable(w, []string{"arch", "mean err"}, rows)
		// Compact series: ref and IPS percentage at each sample.
		for _, t := range r.Traces {
			if t.Workload != name {
				continue
			}
			fmt.Fprintf(w, "%-10s", t.Arch+":")
			for i := range t.Epochs {
				if i%4 == 0 { // thin the printout
					fmt.Fprintf(w, " %5.1f", t.IPSPct[i])
				}
			}
			fmt.Fprintln(w)
		}
		for _, t := range r.Traces {
			if t.Workload == name {
				fmt.Fprintf(w, "%-10s", "ref:")
				for i := range t.Epochs {
					if i%4 == 0 {
						fmt.Fprintf(w, " %5.1f", t.RefPct[i])
					}
				}
				fmt.Fprintln(w)
				break
			}
		}
	}
}
