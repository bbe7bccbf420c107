package experiments

import (
	"fmt"
	"io"

	"mimoctl/internal/core"
	"mimoctl/internal/runner"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
)

// Fig7 reproduces Figure 7: maximum model prediction error versus model
// dimension, justifying the paper's choice of dimension 4. Each
// dimension's model is the two-input design flow's identification at
// that dimension (memoized, shared with every design there); errors
// are the model's one-step prediction errors on held-out validation
// applications (h264ref, tonto) — the standard system-identification
// prediction-error metric, which isolates how well each order captures
// the plant *dynamics* (free-run error is dominated by the per-
// application operating-point mismatch that the uncertainty guardband
// covers instead).

// Fig7Point is one model dimension's result.
type Fig7Point struct {
	Dimension int
	// MaxErrIPSPct / MaxErrPowerPct are the worst prediction errors in
	// percent (paper Fig. 7's two curves).
	MaxErrIPSPct, MaxErrPowerPct float64
	// FitIPSPct / FitPowerPct are NRMSE fits on validation data.
	FitIPSPct, FitPowerPct float64
}

// Fig7Result holds the dimension sweep.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7 runs the sweep over even dimensions 2..maxDim (two outputs means
// realizable state dimensions come in steps of 2). The plan has two
// stages: the per-application validation records are collected by
// independent jobs, then one job per dimension takes its memoized
// model and scores it against the shared (read-only) records. The
// dimensions not yet identified for the seed are fit on one training
// record, collected by the first of them and dropped with this call.
func Fig7(seed int64, maxDim int) (*Fig7Result, error) {
	if maxDim <= 0 {
		maxDim = 8
	}
	// Stage 1: one validation record per held-out application (the
	// figure's "maximum error" is the worst per-application average
	// prediction error, as in §VI-A2).
	valWorkloads := ValidationWorkloads()
	valRecords := make([]*sysid.Data, len(valWorkloads))
	collect := make([]runner.Job, len(valWorkloads))
	for i, w := range valWorkloads {
		i, w := i, w
		collect[i] = runner.Job{Label: "fig7/collect/" + w.Name(), Run: func() error {
			d, err := core.CollectIdentificationData([]sim.Workload{w}, false, 1500, seed+99991)
			valRecords[i] = d
			return err
		}}
	}
	if err := runPlan(collect); err != nil {
		return nil, err
	}

	// Stage 2: one job per model dimension.
	var dims []int
	for dim := 2; dim <= maxDim; dim += 2 {
		dims = append(dims, dim)
	}
	train := &trainingRecord{three: false, seed: seed}
	points := make([]Fig7Point, len(dims))
	fit := make([]runner.Job, len(dims))
	for i, dim := range dims {
		i, dim := i, dim
		fit[i] = runner.Job{Label: fmt.Sprintf("fig7/dim=%d", dim), Run: func() error {
			p, err := fig7Point(train, valRecords, dim)
			if err != nil {
				return err
			}
			points[i] = p
			return nil
		}}
	}
	if err := runPlan(fit); err != nil {
		return nil, err
	}
	res := &Fig7Result{Points: points}
	markFigureDone("fig7")
	return res, nil
}

// fig7Point scores one dimension's memoized two-input model, fit on
// train when cold, on the validation records — one independent job; it
// only reads the shared model and records.
func fig7Point(train *trainingRecord, valRecords []*sysid.Data, dim int) (Fig7Point, error) {
	id, err := identifiedFrom(train, dim)
	if err != nil {
		return Fig7Point{}, fmt.Errorf("dimension %d: %w", dim, err)
	}
	model := id.Model
	point := Fig7Point{Dimension: dim}
	var fitI, fitP []float64
	for _, val := range valRecords {
		pred, err := model.OneStepPredict(val)
		if err != nil {
			return Fig7Point{}, err
		}
		relErr, err := sysid.MeanRelError(val.Y, pred)
		if err != nil {
			return Fig7Point{}, err
		}
		if e := 100 * relErr[0]; e > point.MaxErrIPSPct {
			point.MaxErrIPSPct = e
		}
		if e := 100 * relErr[1]; e > point.MaxErrPowerPct {
			point.MaxErrPowerPct = e
		}
		fit, err := sysid.FitPercent(val.Y, pred)
		if err != nil {
			return Fig7Point{}, err
		}
		fitI = append(fitI, fit[0])
		fitP = append(fitP, fit[1])
	}
	point.FitIPSPct = mean(fitI)
	point.FitPowerPct = mean(fitP)
	return point, nil
}

// WriteText renders the sweep.
func (r *Fig7Result) WriteText(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: maximum prediction error vs. model dimension (validation: h264ref, tonto)")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Dimension),
			fmt.Sprintf("%.1f", p.MaxErrIPSPct),
			fmt.Sprintf("%.1f", p.MaxErrPowerPct),
			fmt.Sprintf("%.1f", p.FitIPSPct),
			fmt.Sprintf("%.1f", p.FitPowerPct),
		})
	}
	writeTable(w, []string{"dim", "max err IPS %", "max err P %", "fit IPS %", "fit P %"}, rows)
}
