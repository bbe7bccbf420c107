package robust

import (
	"math"
	"testing"

	"mimoctl/internal/lqg"
	"mimoctl/internal/lti"
	"mimoctl/internal/mat"
	"mimoctl/internal/testkit"
)

func testPlant(t *testing.T) *lti.StateSpace {
	t.Helper()
	a := testkit.FromRows([][]float64{{0.7, 0.1}, {0.05, 0.6}})
	b := testkit.FromRows([][]float64{{0.5, 0.2}, {0.1, 0.4}})
	c := mat.Identity(2)
	return lti.MustStateSpace(a, b, c, nil, 50e-6)
}

func designController(t *testing.T, plant *lti.StateSpace, outW, inW []float64) *lti.StateSpace {
	t.Helper()
	ctrl, err := lqg.Design(plant,
		lqg.Weights{OutputWeights: outW, InputWeights: inW},
		lqg.Noise{W: mat.Scale(1e-6, mat.Identity(plant.Order())), V: mat.Scale(1e-6, mat.Identity(plant.Outputs()))},
		lqg.Options{DeltaU: true, Integral: true})
	if err != nil {
		t.Fatal(err)
	}
	css, err := ctrl.AsStateSpace()
	if err != nil {
		t.Fatal(err)
	}
	return css
}

func TestCloseLoopStableForLQG(t *testing.T) {
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	loop, err := CloseLoop(plant, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := loop.IsStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("LQG closed loop should be nominally stable")
	}
}

func TestCloseLoopDimensionChecks(t *testing.T) {
	plant := testPlant(t)
	// Controller with wrong I/O shape.
	bad := lti.MustStateSpace(mat.Diag(0.5), mat.New(1, 1), mat.New(1, 1), nil, 1)
	if _, err := CloseLoop(plant, bad); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	// Plant with feed-through is rejected.
	pd := lti.MustStateSpace(plant.A, plant.B, plant.C, mat.Scale(0.1, mat.Identity(2)), plant.Ts)
	ctrl := designController(t, plant, []float64{1, 1}, []float64{1, 1})
	if _, err := CloseLoop(pd, ctrl); err == nil {
		t.Fatal("expected feed-through rejection")
	}
}

func TestAnalyzeNominalAndRobust(t *testing.T) {
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	rep, err := Analyze(plant, ctrl, []float64{0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NominallyStable {
		t.Fatalf("closed loop not nominally stable: ρ = %v", rep.SpectralRadius)
	}
	if rep.PeakGain <= 0 {
		t.Fatalf("peak gain %v", rep.PeakGain)
	}
	if rep.RobustlyStable != (rep.PeakGain < 1) {
		t.Fatal("verdict inconsistent with peak gain")
	}
	if rep.Margin > 0 && math.Abs(rep.Margin*rep.PeakGain-1) > 1e-9 {
		t.Fatal("margin is not 1/peak")
	}
}

func TestGuardbandMonotonicity(t *testing.T) {
	// Larger guardbands can only increase the peak gain.
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	small, err := Analyze(plant, ctrl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Analyze(plant, ctrl, []float64{0.8, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if large.PeakGain <= small.PeakGain {
		t.Fatalf("peak gain not monotone: %v vs %v", small.PeakGain, large.PeakGain)
	}
	// Scaling the uniform guardband scales the peak linearly.
	ratio := large.PeakGain / small.PeakGain
	if math.Abs(ratio-8) > 1e-6 {
		t.Fatalf("expected 8x scaling, got %v", ratio)
	}
}

func TestIntegralActionCapsMarginAtOne(t *testing.T) {
	// With integral action the complementary sensitivity is the identity
	// at DC, so the worst-case multiplicative output guardband cannot
	// exceed 1 (100%): a textbook property the analysis must reproduce.
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	g, err := WorstCaseGuardband(plant, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if g > 1+1e-6 {
		t.Fatalf("worst-case guardband %v exceeds 1 despite integral action", g)
	}
	if g < 0.1 {
		t.Fatalf("worst-case guardband %v implausibly small for a benign plant", g)
	}
}

func TestVerdictFlipsWithGuardbandSize(t *testing.T) {
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	smallRep, err := Analyze(plant, ctrl, []float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !smallRep.RobustlyStable {
		t.Fatalf("5%% guardband should certify: peak %v", smallRep.PeakGain)
	}
	largeRep, err := Analyze(plant, ctrl, []float64{2.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if largeRep.RobustlyStable {
		t.Fatalf("200%% guardband should fail small-gain: peak %v", largeRep.PeakGain)
	}
}

func TestSmallGainCertificatePredictsPerturbationStability(t *testing.T) {
	// Build a perturbed plant within the certified guardband and verify
	// the loop remains stable — the substance of the small-gain theorem.
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{100, 100}, []float64{1, 1})
	g, err := WorstCaseGuardband(plant, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Skip("no certificate for this design")
	}
	// Static output perturbation (I + Δ) with ‖Δ‖ slightly inside g.
	delta := math.Min(g*0.9, 2.0)
	pert := mat.Add(mat.Identity(2), mat.Scale(delta, mat.Diag(1, -1)))
	pPlant := lti.MustStateSpace(plant.A, plant.B, mat.Mul(pert, plant.C), nil, plant.Ts)
	loop, err := CloseLoop(pPlant, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := loop.IsStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatalf("loop unstable under certified perturbation %v", delta)
	}
}

func TestAnalyzeValidatesGuardbands(t *testing.T) {
	plant := testPlant(t)
	ctrl := designController(t, plant, []float64{1, 1}, []float64{1, 1})
	if _, err := Analyze(plant, ctrl, []float64{0.5}); err == nil {
		t.Fatal("expected guardband count error")
	}
	if _, err := Analyze(plant, ctrl, []float64{-0.1, 0.5}); err == nil {
		t.Fatal("expected negative guardband error")
	}
}

func TestAnalyzeUnstableLoopReported(t *testing.T) {
	// A destabilizing "controller": positive feedback with large gain on
	// an integrating plant.
	plant := lti.MustStateSpace(mat.Diag(0.99), testkit.FromRows([][]float64{{1}}),
		testkit.FromRows([][]float64{{1}}), nil, 1)
	ctrl := lti.MustStateSpace(mat.Diag(0.5), testkit.FromRows([][]float64{{1}}),
		testkit.FromRows([][]float64{{0}}), testkit.FromRows([][]float64{{5}}), 1)
	rep, err := Analyze(plant, ctrl, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NominallyStable || rep.RobustlyStable {
		t.Fatalf("expected unstable report, got %+v", rep)
	}
}
