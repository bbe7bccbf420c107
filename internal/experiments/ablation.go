package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md calls out by
// re-running the tracking experiment with one ingredient removed at a
// time: the Δu (input-increment) cost, the integral action, and the
// paper's 20:1 frequency:cache weight ratio (Table III's rationale that
// a knob with more settings needs a higher weight).

// AblationRow is one variant's tracking quality on the responsive set.
type AblationRow struct {
	Variant                string
	IPSErrPct, PowerErrPct float64
}

// AblationResult holds all variants.
type AblationResult struct {
	Epochs int
	Rows   []AblationRow
}

// Ablation runs the variants. epochs <= 0 selects 3000.
func Ablation(seed int64, epochs int) (*AblationResult, error) {
	if epochs <= 0 {
		epochs = 3000
	}
	variants := []struct {
		name   string
		mutate func(*core.DesignSpec)
	}{
		{"paper (Δu + integral + 20:1)", nil},
		{"no Δu penalty (absolute-u cost)", func(s *core.DesignSpec) { s.DisableDeltaU = true }},
		{"no integral action", func(s *core.DesignSpec) { s.DisableIntegral = true }},
		{"flat input weights (1:1)", func(s *core.DesignSpec) { s.FreqWeight = core.DefaultCacheWeight }},
		{"model dimension 2", func(s *core.DesignSpec) { s.ModelDimension = 2 }},
		{"model dimension 8", func(s *core.DesignSpec) { s.ModelDimension = 8 }},
	}
	// Stage 1: one design job per variant, each on the shared
	// identification of its model dimension.
	ctrls := make([]*core.MIMOController, len(variants))
	design := make([]runner.Job, len(variants))
	for vi, v := range variants {
		vi, v := vi, v
		design[vi] = runner.Job{Label: "ablation/design/" + v.name, Run: func() error {
			spec := core.DesignSpec{Seed: seed}
			if v.mutate != nil {
				v.mutate(&spec)
			}
			ctrl, _, err := designMIMO(spec)
			if err != nil {
				return fmt.Errorf("ablation %q: %w", v.name, err)
			}
			ctrls[vi] = ctrl
			return nil
		}}
	}
	if err := runPlan(design); err != nil {
		return nil, err
	}
	// Stage 2: one run job per responsive workload, its variants
	// stepping in lockstep on one bank of the workload's plant; the sums
	// are reduced afterwards in canonical workload order so float
	// summation order never depends on the worker count.
	apps := workloads.ResponsiveSet()
	stats := make([]TrackStats, len(variants)*len(apps))
	run := make([]runner.Job, len(apps))
	for wi, p := range apps {
		wi, p := wi, p
		run[wi] = runner.Job{
			Label: "ablation/" + p.Name(),
			Run: func() error {
				row := make([]core.ArchController, len(ctrls))
				for vi, proto := range ctrls {
					ctrl := bindMIMO(proto.Clone())
					ctrl.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)
					row[vi] = ctrl
				}
				sts, err := RunTracking(row, p, seed+101, epochs, epochs/6)
				if err != nil {
					return err
				}
				for vi, st := range sts {
					stats[vi*len(apps)+wi] = st
				}
				return nil
			},
		}
	}
	if err := runPlan(run); err != nil {
		return nil, err
	}
	res := &AblationResult{Epochs: epochs}
	for vi, v := range variants {
		var sumI, sumP float64
		for wi := range apps {
			st := stats[vi*len(apps)+wi]
			sumI += st.IPSErrPct
			sumP += st.PowerErrPct
		}
		n := float64(len(apps))
		res.Rows = append(res.Rows, AblationRow{
			Variant:   v.name,
			IPSErrPct: sumI / n, PowerErrPct: sumP / n,
		})
	}
	markFigureDone("ablation")
	return res, nil
}

// WriteText renders the table.
func (r *AblationResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablations: responsive-set tracking errors (%d epochs, targets 2.5 BIPS / 2 W)\n", r.Epochs)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant,
			fmt.Sprintf("%.1f", row.IPSErrPct),
			fmt.Sprintf("%.1f", row.PowerErrPct),
		})
	}
	writeTable(w, []string{"variant", "IPS err %", "P err %"}, rows)
}
