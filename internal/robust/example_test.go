package robust_test

import (
	"fmt"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/robust"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
	"mimoctl/internal/workloads"
)

// Robust stability analysis in action (paper §IV-B4): design a
// controller, compute its small-gain uncertainty margin, then perturb
// the plant progressively and watch the closed loop stay stable inside
// the certified region — and (possibly) fail beyond it. This is the
// analysis the paper argues heuristic controllers cannot offer: "for
// heuristic algorithms, it is not possible to perform a similar
// stability analysis."
func Example_robustness() {
	// Identify the plant and design the LQG controller.
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	data, err := core.CollectIdentificationData(training, false, 2500, 11)
	check(err)
	model, err := sysid.FitARX(data, sysid.ARXOrders{NA: 2, NB: 2})
	check(err)
	ctrl, err := lqg.Design(model.SS,
		lqg.Weights{
			OutputWeights: []float64{core.DefaultIPSWeight, core.DefaultPowerWeight},
			InputWeights:  []float64{core.DefaultFreqWeight, core.DefaultCacheWeight},
		},
		lqg.Noise{W: model.W, V: model.V},
		lqg.Options{DeltaU: true, Integral: true})
	check(err)
	ctrlSS, err := ctrl.AsStateSpace()
	check(err)

	// The certificate: the largest uniform multiplicative output
	// perturbation the small-gain theorem guarantees stability for.
	margin, err := robust.WorstCaseGuardband(model.SS, ctrlSS)
	check(err)
	fmt.Printf("small-gain certificate: stable for all output perturbations ≤ %.0f%%\n\n", 100*margin)

	// Probe reality: perturb the plant's output map by ±g and check the
	// actual closed-loop spectral radius.
	fmt.Printf("%-12s %-22s %s\n", "perturbation", "closed-loop ρ", "stable?")
	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 1.2, 2.0} {
		g := frac * margin
		pert := mat.Add(mat.Identity(2), mat.Scale(g, mat.Diag(1, -1)))
		pPlant, err := lti.NewStateSpace(model.SS.A, model.SS.B, mat.Mul(pert, model.SS.C), nil, model.SS.Ts)
		check(err)
		loop, err := robust.CloseLoop(pPlant, ctrlSS)
		check(err)
		rho, err := mat.SpectralRadius(loop.A)
		check(err)
		mark := "stable"
		if rho >= 1 {
			mark = "UNSTABLE"
		}
		note := ""
		if frac > 1 {
			note = "  (beyond the certificate — not guaranteed)"
		}
		fmt.Printf("%5.0f%%        ρ = %.4f             %s%s\n", 100*g, rho, mark, note)
	}
	fmt.Println("\nEvery perturbation within the certificate is stable; the certificate is")
	fmt.Println("sufficient but not necessary, so points beyond it may or may not hold.")
	// Output:
	// small-gain certificate: stable for all output perturbations ≤ 89%
	//
	// perturbation closed-loop ρ          stable?
	//     0%        ρ = 0.9912             stable
	//    22%        ρ = 0.9905             stable
	//    44%        ρ = 0.9900             stable
	//    80%        ρ = 0.9904             stable
	//   107%        ρ = 1.0037             UNSTABLE  (beyond the certificate — not guaranteed)
	//   178%        ρ = 1.0574             UNSTABLE  (beyond the certificate — not guaranteed)
	//
	// Every perturbation within the certificate is stable; the certificate is
	// sufficient but not necessary, so points beyond it may or may not hold.
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
