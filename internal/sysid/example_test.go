package sysid_test

import (
	"fmt"

	"mimoctl/internal/core"
	"mimoctl/internal/lqg"
	"mimoctl/internal/mat"
	"mimoctl/internal/robust"
	"mimoctl/internal/sim"
	"mimoctl/internal/sysid"
	"mimoctl/internal/workloads"
)

// System identification walkthrough: the individual steps the DesignMIMO
// flow automates, done by hand with the library's lower-level packages —
// excitation, ARX fitting, order selection, validation, LQG synthesis,
// and robust stability analysis (paper Fig. 3).
func Example_sysid() {
	// 1. Excite the plant: random-level waveforms on every knob while
	//    the training applications run (§IV-B1).
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	data, err := core.CollectIdentificationData(training, false, 2500, 3)
	check(err)
	fmt.Printf("identification record: %d samples, %d inputs, %d outputs\n",
		data.Samples(), data.U.Cols(), data.Y.Cols())

	// 2. Select the model order on held-out data.
	train, val := data.Split(0.7)
	best, results, err := sysid.SelectOrder(train, val, 4, false, 0.01)
	check(err)
	for i, r := range results {
		marker := " "
		if i == best {
			marker = "*"
		}
		fmt.Printf("%s order NA=NB=%d (state dim %d): max rel err %.3f / %.3f\n",
			marker, r.Orders.NA, r.StateDim, r.MaxErr[0], r.MaxErr[1])
	}

	// 3. Fit the final model on the full record and inspect it: its
	//    poles (stable when all lie inside the unit circle) and its DC
	//    gain C (I-A)⁻¹ B + D.
	model, err := sysid.FitARX(data, sysid.ARXOrders{NA: 2, NB: 2})
	check(err)
	ss := model.SS
	rho, err := mat.SpectralRadius(ss.A)
	check(err)
	x, err := mat.Solve(mat.Sub(mat.Identity(ss.Order()), ss.A), ss.B)
	check(err)
	dc := mat.Add(mat.Mul(ss.C, x), ss.D)
	fmt.Printf("model: dim %d, stable %v\nDC gain (IPS,P x freq,ways): %v\n",
		ss.Order(), rho < 1, dc)

	// 4. Design the LQG servo controller with the Table III weights.
	ctrl, err := lqg.Design(ss,
		lqg.Weights{
			OutputWeights: []float64{core.DefaultIPSWeight, core.DefaultPowerWeight},
			InputWeights:  []float64{core.DefaultFreqWeight, core.DefaultCacheWeight},
		},
		lqg.Noise{W: model.W, V: model.V},
		lqg.Options{DeltaU: true, Integral: true})
	check(err)

	// 5. Robust stability analysis under the paper's uncertainty
	//    guardbands (50% IPS, 30% power).
	ctrlSS, err := ctrl.AsStateSpace()
	check(err)
	rep, err := robust.Analyze(ss, ctrlSS, []float64{0.5, 0.3})
	check(err)
	fmt.Printf("robust stability: nominal %v, small-gain peak %.3f -> robust %v (margin %.2fx)\n",
		rep.NominallyStable, rep.PeakGain, rep.RobustlyStable, rep.Margin)
	// Output:
	// identification record: 9996 samples, 2 inputs, 2 outputs
	//   order NA=NB=1 (state dim 2): max rel err 1.752 / 1.587
	// * order NA=NB=2 (state dim 4): max rel err 1.724 / 1.574
	//   order NA=NB=3 (state dim 6): max rel err 1.716 / 1.567
	//   order NA=NB=4 (state dim 8): max rel err 1.718 / 1.568
	// model: dim 4, stable true
	// DC gain (IPS,P x freq,ways): 2x2[0.684754 0.0337778; 1.05913 0.0630816]
	// robust stability: nominal true, small-gain peak 0.500 -> robust true (margin 2.00x)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
